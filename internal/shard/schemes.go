package shard

// Per-scheme Sharding descriptors for the key-partitioned case studies:
// point/range selection over relations and list membership. All three cut
// the dataset by element key, so a point query routes straight to the
// shard owning its key, and a range query routes when the assignment keeps
// contiguous ranges together (range partitioning) or fans out with an OR
// merge otherwise.

import (
	"fmt"

	"pitract/internal/core"
	"pitract/internal/relation"
	"pitract/internal/schemes"
)

// ForScheme returns the Sharding descriptor for a scheme name, or nil when
// the scheme has no sharded form (e.g. BDS visit orders and CVP gate
// tables are global artifacts with no meaningful data partition).
func ForScheme(name string) *Sharding {
	switch name {
	case "point-selection/sorted-keys", "point-selection/scan":
		return pointSelectionSharding()
	case "range-selection/sorted-keys":
		return rangeSelectionSharding()
	case "list-membership/sorted":
		return listMembershipSharding()
	case "reachability/closure-matrix":
		return reachabilitySharding(true)
	case "reachability/labels":
		// The sharded form is scheme-agnostic (it only needs local reach
		// probes), so the labels scheme shards and routes deltas exactly
		// like the dense closure — each shard just answers by label
		// intersection instead of a matrix probe.
		return reachabilitySharding(true)
	case "reachability/bfs-per-query":
		// No delta routing: see reachabilitySharding on why maintenance
		// would cost more than re-registering for the BFS baseline.
		return reachabilitySharding(false)
	default:
		return nil
	}
}

// DeltaCapableSchemes lists the scheme names whose sharded form routes
// deltas (a subset of ShardableSchemes), for error messages and docs.
func DeltaCapableSchemes() []string {
	return []string{
		"list-membership/sorted",
		"point-selection/sorted-keys",
		"range-selection/sorted-keys",
		"reachability/closure-matrix",
		"reachability/labels",
	}
}

// ShardableSchemes lists the scheme names ForScheme accepts, for error
// messages and docs.
func ShardableSchemes() []string {
	return []string{
		"list-membership/sorted",
		"point-selection/scan",
		"point-selection/sorted-keys",
		"range-selection/sorted-keys",
		"reachability/bfs-per-query",
		"reachability/closure-matrix",
		"reachability/labels",
	}
}

// relationKeys extracts the int64 "key" column in tuple order.
func relationKeys(data []byte) ([]int64, error) {
	rel, err := relation.Decode(data)
	if err != nil {
		return nil, err
	}
	idx := rel.Schema.AttrIndex("key")
	if idx < 0 {
		return nil, fmt.Errorf("shard: relation %q has no \"key\" attribute to partition on", rel.Schema.Name)
	}
	if rel.Schema.Attrs[idx].Kind != relation.KindInt64 {
		return nil, fmt.Errorf("shard: relation %q attribute \"key\" is %v, want int64",
			rel.Schema.Name, rel.Schema.Attrs[idx].Kind)
	}
	keys := make([]int64, rel.Len())
	for i, t := range rel.Tuples {
		keys[i] = t[idx].I
	}
	return keys, nil
}

// splitRelation cuts a relation into one sub-relation per shard, keeping
// the schema and tuple order. Every part is a valid dataset for the
// selection schemes (possibly empty).
func splitRelation(data []byte, asn Assignment) ([][]byte, error) {
	rel, err := relation.Decode(data)
	if err != nil {
		return nil, err
	}
	idx := rel.Schema.AttrIndex("key")
	if idx < 0 {
		return nil, fmt.Errorf("shard: relation %q has no \"key\" attribute to partition on", rel.Schema.Name)
	}
	parts := make([]*relation.Relation, asn.Shards())
	for i := range parts {
		parts[i] = relation.New(rel.Schema)
	}
	for _, t := range rel.Tuples {
		s := asn.Shard(t[idx].I)
		if err := parts[s].Append(t); err != nil {
			return nil, err
		}
	}
	out := make([][]byte, len(parts))
	for i, p := range parts {
		out[i] = p.Encode()
	}
	return out, nil
}

// splitKeysDelta routes a key batch (schemes.KeysDelta and its delete and
// upsert variants) to the shards that own the keys under the frozen
// assignment — the sharded delta path of every key-partitioned scheme.
// Each shard receives one local batch of its own keys carrying the same
// delta kind, applied through the same sorted-file merge (or tombstone
// merge) an unsharded store uses.
func splitKeysDelta(delta []byte, asn Assignment, _ core.Answerer) (map[int][][]byte, error) {
	kind, payload, err := core.DeltaParts(delta)
	if err != nil {
		return nil, err
	}
	keys, err := schemes.DecodeList(payload)
	if err != nil {
		return nil, err
	}
	groups := map[int][]int64{}
	for _, k := range keys {
		s := asn.Shard(k)
		groups[s] = append(groups[s], k)
	}
	out := make(map[int][][]byte, len(groups))
	for s, g := range groups {
		out[s] = [][]byte{core.TagDelta(kind, schemes.EncodeList(g))}
	}
	return out, nil
}

// pointSelectionSharding: point queries always route — the owning shard is
// the one the query key hashes or ranges to — so no fan-out and no merge.
func pointSelectionSharding() *Sharding {
	return &Sharding{
		Keys:       relationKeys,
		Split:      splitRelation,
		SplitDelta: splitKeysDelta,
		Route: func(q []byte, asn Assignment) (int, error) {
			c, err := schemes.DecodePointQuery(q)
			if err != nil {
				return 0, err
			}
			return asn.Shard(c), nil
		},
	}
}

// rangeSelectionSharding: a [lo, hi] query routes when one shard owns the
// whole range (range partitioning keeps ranges contiguous); otherwise it
// fans out unchanged — each shard scans/searches its own keys — and the
// verdicts OR together, the natural merge for an existential query.
func rangeSelectionSharding() *Sharding {
	return &Sharding{
		Keys:       relationKeys,
		Split:      splitRelation,
		SplitDelta: splitKeysDelta,
		Route: func(q []byte, asn Assignment) (int, error) {
			lo, hi, err := schemes.DecodeRangeQuery(q)
			if err != nil {
				return 0, err
			}
			if lo == hi {
				return asn.Shard(lo), nil
			}
			if ro, ok := asn.(RangeOwner); ok {
				if s := ro.OwnerOfRange(lo, hi); s >= 0 {
					return s, nil
				}
			}
			return -1, nil // spans shards: fan out, OR the verdicts
		},
	}
}

// listMembershipSharding: like point selection, with list datasets.
func listMembershipSharding() *Sharding {
	return &Sharding{
		Keys:       schemes.DecodeList,
		SplitDelta: splitKeysDelta,
		Split: func(data []byte, asn Assignment) ([][]byte, error) {
			list, err := schemes.DecodeList(data)
			if err != nil {
				return nil, err
			}
			parts := make([][]int64, asn.Shards())
			for _, v := range list {
				s := asn.Shard(v)
				parts[s] = append(parts[s], v)
			}
			out := make([][]byte, len(parts))
			for i, p := range parts {
				out[i] = schemes.EncodeList(p)
			}
			return out, nil
		},
		Route: func(q []byte, asn Assignment) (int, error) {
			e, err := schemes.DecodePointQuery(q)
			if err != nil {
				return 0, err
			}
			return asn.Shard(e), nil
		},
	}
}
