package shard

// The table of sharded forms, and the one form of the key-partitioned case
// studies: selection over relations (point and range queries on one sorted
// key file) and list membership. Both cut the dataset into key ranges, so a
// point query routes straight to the shard owning its key, and a range query
// routes when one shard owns the whole range or fans out with an OR merge
// otherwise.

import (
	"fmt"
	"maps"
	"slices"

	"pitract/internal/core"
	"pitract/internal/relation"
	"pitract/internal/schemes"
)

// sharded is the one table of sharded forms, by scheme name: one form per Π
// family, and every form routes deltas. Schemes absent from it have none —
// BDS visit orders and CVP gate tables are global artifacts with no
// meaningful data partition, and the two no-preprocessing baselines
// (point-selection/scan, reachability/bfs-per-query) are served unsharded
// only. The labels scheme shards exactly like the closure matrix: the view
// only needs local reach probes.
var sharded = map[string]func() *Sharding{
	"list-membership/sorted":      func() *Sharding { return keySharding(splitList) },
	"point-selection/sorted-keys": func() *Sharding { return keySharding(splitRelation) },
	"reachability/closure-matrix": reachabilitySharding,
	"reachability/labels":         reachabilitySharding,
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

// splitRelation is the Split hook of the relation schemes: tuples are
// partitioned on their int64 "key" attribute, each part keeping the schema
// and tuple order. Every part is a valid dataset for the selection schemes
// (possibly empty).
func splitRelation(data []byte, n int) (Assignment, [][]byte, []byte, error) {
	rel, err := relation.Decode(data)
	if err != nil {
		return Assignment{}, nil, nil, fmt.Errorf("keys: %w", err)
	}
	idx := rel.Schema.AttrIndex("key")
	if idx < 0 {
		return Assignment{}, nil, nil, fmt.Errorf("keys: shard: relation %q has no \"key\" attribute to partition on", rel.Schema.Name)
	}
	if rel.Schema.Attrs[idx].Kind != relation.KindInt64 {
		return Assignment{}, nil, nil, fmt.Errorf("keys: shard: relation %q attribute \"key\" is %v, want int64",
			rel.Schema.Name, rel.Schema.Attrs[idx].Kind)
	}
	keys := make([]int64, rel.Len())
	for i, t := range rel.Tuples {
		keys[i] = t[idx].I
	}
	asn, err := RangePartitioner{}.Plan(keys, n)
	if err != nil {
		return Assignment{}, nil, nil, err
	}
	parts := make([]*relation.Relation, asn.Shards())
	for i := range parts {
		parts[i] = relation.New(rel.Schema)
	}
	for i, t := range rel.Tuples {
		if err := parts[asn.Shard(keys[i])].Append(t); err != nil {
			return Assignment{}, nil, nil, fmt.Errorf("split: %w", err)
		}
	}
	out := make([][]byte, len(parts))
	for i, part := range parts {
		out[i] = part.Encode()
	}
	return asn, out, nil, nil
}

// splitKeysDelta routes a key batch (schemes.KeysDelta or KeysDeleteDelta)
// to the shards that own the keys under the frozen assignment — the sharded
// delta path of every key-partitioned scheme. Each shard receives one local
// batch of its own keys carrying the same delta kind, applied through the
// same sorted-file merge (or tombstone merge) an unsharded store uses.
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

// keySharding is the sharded form of the key-file schemes, which cut the
// dataset by element key and differ only in how split reads D. Every delta
// is a key batch, routed key by key (splitKeysDelta). A point query routes
// to the shard owning its key. A range query routes when one shard owns the
// whole range and otherwise fans out unchanged, each shard searching its own
// keys, and the verdicts OR together: the natural merge for an existential
// query.
func keySharding(split func(data []byte, n int) (Assignment, [][]byte, []byte, error)) *Sharding {
	return &Sharding{Split: split, SplitDelta: splitKeysDelta, Route: routeKeys}
}

// routeKeys is the key forms' Route. A point query c is the range [c, c],
// and a range with hi ≤ lo holds at most lo, so both go to lo's owner; the
// shards' ranges are contiguous, so lo and hi landing on one shard means
// every key between them does too.
func routeKeys(q []byte, asn Assignment) (int, error) {
	lo, hi, err := schemes.DecodeSelection(q)
	if err != nil {
		return 0, err
	}
	if s := asn.Shard(lo); hi <= lo || s == asn.Shard(hi) {
		return s, nil
	}
	return -1, nil // spans shards: fan out, OR the verdicts
}

// splitList is list membership's Split: the elements are their own keys.
func splitList(data []byte, n int) (Assignment, [][]byte, []byte, error) {
	list, err := schemes.DecodeList(data)
	if err != nil {
		return Assignment{}, nil, nil, fmt.Errorf("keys: %w", err)
	}
	asn, err := RangePartitioner{}.Plan(list, n)
	if err != nil {
		return Assignment{}, nil, nil, err
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
}
