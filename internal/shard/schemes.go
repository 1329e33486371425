package shard

// Per-scheme Sharding descriptors for the key-partitioned case studies:
// point/range selection over relations and list membership. All three cut
// the dataset by element key, so a point query routes straight to the
// shard owning its key, and a range query routes when the assignment keeps
// contiguous ranges together (range partitioning) or fans out with an OR
// merge otherwise.

import (
	"fmt"
	"maps"
	"slices"

	"pitract/internal/core"
	"pitract/internal/relation"
	"pitract/internal/schemes"
)

// sharded is the one table of sharded forms, by scheme name. Schemes absent
// from it have none (e.g. BDS visit orders and CVP gate tables are global
// artifacts with no meaningful data partition). The scan baseline has no
// incremental form, so its sharded form routes no deltas either; the labels
// scheme shards exactly like the closure matrix (the sharded form only needs
// local reach probes — each shard just answers by label intersection instead
// of a matrix probe); see reachabilitySharding on the BFS baseline.
var sharded = map[string]func() *Sharding{
	"list-membership/sorted":      listMembershipSharding,
	"point-selection/scan":        func() *Sharding { return pointSelectionSharding(false) },
	"point-selection/sorted-keys": func() *Sharding { return pointSelectionSharding(true) },
	"range-selection/sorted-keys": rangeSelectionSharding,
	"reachability/bfs-per-query":  func() *Sharding { return reachabilitySharding(false) },
	"reachability/closure-matrix": func() *Sharding { return reachabilitySharding(true) },
	"reachability/labels":         func() *Sharding { return reachabilitySharding(true) },
}

// ForScheme returns the Sharding descriptor for a scheme name, or nil when
// the scheme has no sharded form.
func ForScheme(name string) *Sharding {
	if form := sharded[name]; form != nil {
		return form()
	}
	return nil
}

// ShardableSchemes lists the scheme names ForScheme accepts, sorted, for
// error messages and docs.
func ShardableSchemes() []string {
	return slices.Sorted(maps.Keys(sharded))
}

// DeltaCapableSchemes lists the scheme names whose sharded form routes
// deltas (a subset of ShardableSchemes), for error messages and docs.
func DeltaCapableSchemes() []string {
	return slices.DeleteFunc(ShardableSchemes(), func(name string) bool { return sharded[name]().SplitDelta == nil })
}

// splitRelation is the Split hook of the relation schemes: tuples are
// partitioned on their int64 "key" attribute, each part keeping the schema
// and tuple order. Every part is a valid dataset for the selection schemes
// (possibly empty).
func splitRelation(data []byte, p Partitioner, n int) (Assignment, [][]byte, []byte, error) {
	rel, err := relation.Decode(data)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("keys: %w", err)
	}
	idx := rel.Schema.AttrIndex("key")
	if idx < 0 {
		return nil, nil, nil, fmt.Errorf("keys: shard: relation %q has no \"key\" attribute to partition on", rel.Schema.Name)
	}
	if rel.Schema.Attrs[idx].Kind != relation.KindInt64 {
		return nil, nil, nil, fmt.Errorf("keys: shard: relation %q attribute \"key\" is %v, want int64",
			rel.Schema.Name, rel.Schema.Attrs[idx].Kind)
	}
	keys := make([]int64, rel.Len())
	for i, t := range rel.Tuples {
		keys[i] = t[idx].I
	}
	asn, err := p.Plan(keys, n)
	if err != nil {
		return nil, nil, nil, err
	}
	parts := make([]*relation.Relation, asn.Shards())
	for i := range parts {
		parts[i] = relation.New(rel.Schema)
	}
	for i, t := range rel.Tuples {
		if err := parts[asn.Shard(keys[i])].Append(t); err != nil {
			return nil, nil, nil, fmt.Errorf("split: %w", err)
		}
	}
	out := make([][]byte, len(parts))
	for i, part := range parts {
		out[i] = part.Encode()
	}
	return asn, out, nil, nil
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

// routePoint routes a point (or membership) query to the shard owning its key.
func routePoint(q []byte, asn Assignment) (int, error) {
	c, err := schemes.DecodePointQuery(q)
	if err != nil {
		return 0, err
	}
	return asn.Shard(c), nil
}

// pointSelectionSharding: point queries always route — the owning shard is
// the one the query key hashes or ranges to — so no fan-out and no merge.
func pointSelectionSharding(withDeltas bool) *Sharding {
	sh := &Sharding{Split: splitRelation, Route: routePoint}
	if withDeltas {
		sh.SplitDelta = splitKeysDelta
	}
	return sh
}

// rangeSelectionSharding: a [lo, hi] query routes when one shard owns the
// whole range (range partitioning keeps ranges contiguous); otherwise it
// fans out unchanged — each shard scans/searches its own keys — and the
// verdicts OR together, the natural merge for an existential query.
func rangeSelectionSharding() *Sharding {
	return &Sharding{
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

// listMembershipSharding: like point selection, with list datasets — the
// elements are their own keys.
func listMembershipSharding() *Sharding {
	return &Sharding{
		SplitDelta: splitKeysDelta,
		Route:      routePoint,
		Split: func(data []byte, p Partitioner, n int) (Assignment, [][]byte, []byte, error) {
			list, err := schemes.DecodeList(data)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("keys: %w", err)
			}
			asn, err := p.Plan(list, n)
			if err != nil {
				return nil, nil, nil, err
			}
			parts := make([][]int64, asn.Shards())
			for _, v := range list {
				s := asn.Shard(v)
				parts[s] = append(parts[s], v)
			}
			out := make([][]byte, len(parts))
			for i, part := range parts {
				out[i] = schemes.EncodeList(part)
			}
			return asn, out, nil, nil
		},
	}
}
