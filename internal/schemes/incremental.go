package schemes

// Incremental preprocessing (§1 justification (3); see
// core.IncrementalScheme): maintain Π(D ⊕ ∆D) from Π(D) and ∆D instead of
// re-preprocessing. The instances:
//
//   - the sorted-key file of the point/range-selection and list-membership
//     schemes under insertions and deletions (merge or tombstone in
//     O(|D| + |∆D|), versus O(|D| log |D|) re-sorting);
//   - the reachability closure under edge insertions and deletions (the
//     graph appendix re-encoded when no fact changes, a rebuild over the
//     condensation when one can have);
//   - the BFS-per-query baseline, whose "preprocessed" string is the graph
//     itself, so maintenance is editing the edge list.
//
// IncrementalForScheme is the catalog the serving layers route through:
// store.Registry.ApplyDelta and the HTTP PATCH /v1/datasets/{id} path
// resolve a dataset's incremental form by scheme name there.

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/relation"
)

// KeysDelta encodes an insertion batch of keys for the sorted-key-file
// schemes: every batch key absent from the data is added (a present key is a
// no-op, so inserts are idempotent and replay-safe).
func KeysDelta(keys []int64) []byte {
	return core.TagDelta(core.DeltaInsert, EncodeList(keys))
}

// KeysDeleteDelta encodes a retraction batch for the sorted-key-file
// schemes: every record carrying a batch key is dropped (tombstone
// semantics — deleting an absent key is a no-op, so retractions are
// idempotent and replay-safe).
func KeysDeleteDelta(keys []int64) []byte {
	return core.TagDelta(core.DeltaDelete, EncodeList(keys))
}

// incremental is the one table of incremental forms, by scheme name. Schemes
// absent from it have none (e.g. the point-selection scan baseline keeps no
// maintained structure, and BDS visit orders are global artifacts an
// insertion can reshuffle wholesale).
var incremental = map[string]func() *core.IncrementalScheme{
	"list-membership/sorted":      IncrementalListMembership,
	"point-selection/sorted-keys": IncrementalPointSelection,
	"range-selection/sorted-keys": IncrementalRangeSelection,
	"reachability/bfs-per-query":  IncrementalReachabilityBFS,
	"reachability/closure-matrix": IncrementalReachability,
	"reachability/labels":         IncrementalReachabilityLabels,
}

// IncrementalForScheme returns the incremental form of a scheme, or nil
// when the scheme has none. This is the catalog the serving layers consult:
// store.Registry.ApplyDelta and the server's PATCH /v1/datasets/{id}
// handler resolve a registered dataset's maintenance path here by scheme
// name.
func IncrementalForScheme(name string) *core.IncrementalScheme {
	if form := incremental[name]; form != nil {
		return form()
	}
	return nil
}

// MaintainableSchemes lists the scheme names IncrementalForScheme accepts,
// sorted, for error messages and docs.
func MaintainableSchemes() []string {
	return slices.Sorted(maps.Keys(incremental))
}

// mergeSortedKeyFiles merges a sorted fixed-width key file with a sorted
// batch of new keys, dropping duplicates — the shared maintenance step of
// every sorted-key-file scheme.
func mergeSortedKeyFiles(pd, sorted []byte) []byte {
	out := make([]byte, 0, len(pd)+len(sorted))
	i, j := 0, 0
	for i < len(pd) && j < len(sorted) {
		a := binary.BigEndian.Uint64(pd[i:])
		b := binary.BigEndian.Uint64(sorted[j:])
		switch {
		case a < b:
			out = append(out, pd[i:i+8]...)
			i += 8
		case b < a:
			out = append(out, sorted[j:j+8]...)
			j += 8
		default:
			out = append(out, pd[i:i+8]...)
			i += 8
			j += 8
		}
	}
	out = append(out, pd[i:]...)
	out = append(out, sorted[j:]...)
	return out
}

// deleteSortedKeys drops every fixed-width record whose key appears in the
// tombstone batch — all duplicate records of a key fall together, matching
// a fresh rebuild of the retracted data. Keys absent from the file are
// ignored (idempotent tombstones).
func deleteSortedKeys(pd []byte, keys []int64) []byte {
	tombs := putSortedKeys(dedupSorted(keys))
	out := make([]byte, 0, len(pd))
	j := 0
	for i := 0; i < len(pd); i += 8 {
		a := binary.BigEndian.Uint64(pd[i:])
		for j < len(tombs) && binary.BigEndian.Uint64(tombs[j:]) < a {
			j += 8
		}
		if j < len(tombs) && binary.BigEndian.Uint64(tombs[j:]) == a {
			continue
		}
		out = append(out, pd[i:i+8]...)
	}
	return out
}

// applyKeysDelta is the shared ApplyDelta of the sorted-key-file schemes:
// inserts merge (the merge skips present keys), deletes tombstone.
func applyKeysDelta(pd, delta []byte) ([]byte, error) {
	if len(pd)%8 != 0 {
		return nil, fmt.Errorf("schemes: corrupt sorted-key file (%d bytes)", len(pd))
	}
	kind, payload, err := core.DeltaParts(delta)
	if err != nil {
		return nil, err
	}
	keys, err := DecodeList(payload)
	if err != nil {
		return nil, err
	}
	if kind == core.DeltaDelete {
		return deleteSortedKeys(pd, keys), nil
	}
	return mergeSortedKeyFiles(pd, putSortedKeys(dedupSorted(keys))), nil
}

// applyRelationKeys is the ⊕ of the relation-backed selection schemes:
// insert appends one tuple per absent key, delete removes every tuple
// carrying a batch key.
func applyRelationKeys(d, delta []byte) ([]byte, error) {
	rel, err := relation.Decode(d)
	if err != nil {
		return nil, err
	}
	kind, payload, err := core.DeltaParts(delta)
	if err != nil {
		return nil, err
	}
	keys, err := DecodeList(payload)
	if err != nil {
		return nil, err
	}
	idx := rel.Schema.AttrIndex("key")
	if idx < 0 {
		return nil, fmt.Errorf("schemes: relation %q has no key attribute to %v by", rel.Schema.Name, kind)
	}
	if kind == core.DeltaDelete {
		dropped := make(map[int64]bool, len(keys))
		for _, k := range keys {
			dropped[k] = true
		}
		kept := rel.Tuples[:0]
		for _, t := range rel.Tuples {
			if !dropped[t[idx].I] {
				kept = append(kept, t)
			}
		}
		rel.Tuples = kept
		return rel.Encode(), nil
	}
	present := make(map[int64]bool, len(rel.Tuples))
	for _, t := range rel.Tuples {
		present[t[idx].I] = true
	}
	for _, k := range keys {
		if present[k] {
			continue
		}
		present[k] = true
		if err := rel.Append(relation.Tuple{relation.Int(k), relation.Str("")}); err != nil {
			return nil, err
		}
	}
	return rel.Encode(), nil
}

// IncrementalPointSelection returns the point-selection scheme extended
// with merge-based maintenance of its sorted key file.
func IncrementalPointSelection() *core.IncrementalScheme {
	return &core.IncrementalScheme{
		Scheme:      PointSelectionScheme(),
		ApplyDelta:  applyKeysDelta,
		ApplyUpdate: applyRelationKeys,
		DeltaNote:   "O(|D|/8 + |∆D| log |∆D|) merge/tombstone vs O(|D| log |D|) re-sort",
	}
}

// IncrementalRangeSelection is IncrementalPointSelection for the range
// scheme: the two share the sorted-key-file artifact, so the same merge
// maintains both.
func IncrementalRangeSelection() *core.IncrementalScheme {
	return &core.IncrementalScheme{
		Scheme:      RangeSelectionScheme(),
		ApplyDelta:  applyKeysDelta,
		ApplyUpdate: applyRelationKeys,
		DeltaNote:   "O(|D|/8 + |∆D| log |∆D|) merge/tombstone vs O(|D| log |D|) re-sort",
	}
}

// IncrementalListMembership maintains the §4(2) sorted list with the same
// merge and tombstones. Insert adds only absent elements on both sides of
// the equation — the merge skips present keys and the ⊕ appends only absent
// ones — so maintained Π is byte-equal to a fresh Preprocess of the updated
// list.
func IncrementalListMembership() *core.IncrementalScheme {
	return &core.IncrementalScheme{
		Scheme:     ListMembershipScheme(),
		ApplyDelta: applyKeysDelta,
		ApplyUpdate: func(d, delta []byte) ([]byte, error) {
			list, err := DecodeList(d)
			if err != nil {
				return nil, err
			}
			kind, payload, err := core.DeltaParts(delta)
			if err != nil {
				return nil, err
			}
			newKeys, err := DecodeList(payload)
			if err != nil {
				return nil, err
			}
			if kind == core.DeltaDelete {
				dropped := make(map[int64]bool, len(newKeys))
				for _, k := range newKeys {
					dropped[k] = true
				}
				kept := list[:0]
				for _, e := range list {
					if !dropped[e] {
						kept = append(kept, e)
					}
				}
				return EncodeList(kept), nil
			}
			present := make(map[int64]bool, len(list))
			for _, e := range list {
				present[e] = true
			}
			for _, k := range newKeys {
				if !present[k] {
					present[k] = true
					list = append(list, k)
				}
			}
			return EncodeList(list), nil
		},
		DeltaNote: "O(|M|/8 + |∆M| log |∆M|) merge vs O(|M| log |M|) re-sort",
	}
}

// dedupSorted returns the distinct keys of a delta in ascending order,
// leaving the caller's slice alone.
func dedupSorted(keys []int64) []int64 {
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	return slices.Compact(sorted)
}

// EdgeDelta encodes an edge insertion for the reachability schemes;
// inserting a present edge is a no-op.
func EdgeDelta(u, v int) []byte { return core.TagDelta(core.DeltaInsert, NodePairQuery(u, v)) }

// EdgeDeleteDelta encodes an edge retraction. Unlike key tombstones,
// deleting an absent edge is an error: an edge is a concrete asserted
// datum, and absorbing its absence would mask routing bugs in sharded
// splits.
func EdgeDeleteDelta(u, v int) []byte { return core.TagDelta(core.DeltaDelete, NodePairQuery(u, v)) }

// DecodeEdgeDelta is the one reader of edge deltas: it splits off the kind
// and checks the edge against a graph of n vertices.
func DecodeEdgeDelta(delta []byte, n int) (kind core.DeltaKind, u, v int, err error) {
	kind, payload, err := core.DeltaParts(delta)
	if err != nil {
		return 0, 0, 0, err
	}
	if u, v, err = DecodeNodePairQuery(payload); err != nil {
		return 0, 0, 0, err
	}
	if u < 0 || u >= n || v < 0 || v >= n || u == v {
		return 0, 0, 0, fmt.Errorf("schemes: bad edge delta (%d,%d)", u, v)
	}
	return kind, u, v, nil
}

// editGraph is the one writer of edge deltas: it applies a decoded delta to
// g and reports whether g changed. A delete is strict (RemoveEdge refuses an
// absent edge); inserting a present edge is a no-op.
func editGraph(g *graph.Graph, kind core.DeltaKind, u, v int) (bool, error) {
	if kind == core.DeltaDelete {
		return true, g.RemoveEdge(u, v)
	}
	if g.HasEdge(u, v) {
		return false, nil
	}
	return true, g.AddEdge(u, v)
}

// IncrementalReachability returns the closure-matrix scheme extended with
// maintenance in both directions, decided on the graph appendix: decode it,
// apply the edge, and ask whether any reachability fact can have changed.
//
// Inserting (u, v) changes none when u already reaches v (and v reaches u, for
// an undirected edge): every new path through the arc has an old one beside
// it. Deleting (u, v) changes none when u still reaches v in the surviving
// graph — Vigny's observation (arXiv:2010.02982) that retractions are cheap
// when connectivity survives: every old path through the arc reroutes along
// the surviving u⇝v path. In both cases the closure is bitwise unchanged and
// the new appendix is spliced onto the old head. Otherwise classes may have
// merged or split, and Π is rebuilt from the graph by the kernel Preprocess
// runs. Class ids are canonical, so either way the result is byte-equal to
// Preprocess(D ⊕ ∆D).
//
// What the rebuild costs is what the matrix costs (BenchmarkClosureApplyDelta;
// docs/perf/BENCH_21.md §5 has it beside the row maintenance it replaced): on
// the benchmark workload's graph — 4096 vertices, ≈ 150 classes — a
// fact-changing edge is ≈ 2 ms, a splice ≈ 1.5–2 ms, nearly all of it the
// appendix's decode and re-encode; on a DAG every vertex is a class, the
// matrix is n² bits again, and the rebuild is ≈ 5 ms at 4096 vertices and
// ≈ 60 ms at 16384 — no more than touching the ancestor rows of an n²-bit
// matrix cost there, but not milliseconds.
func IncrementalReachability() *core.IncrementalScheme {
	return &core.IncrementalScheme{
		Scheme:      ReachabilityScheme(),
		ApplyDelta:  applyClosureDelta,
		ApplyUpdate: applyEdgeToGraph,
		DeltaNote:   "O(|V|+|E|): decode the appendix, one O(1) probe (insert) or one search (delete); a rebuild over the condensation — the whole of Preprocess — only when a fact can have changed",
	}
}

// applyClosureDelta is IncrementalReachability's ApplyDelta.
func applyClosureDelta(pd, delta []byte) ([]byte, error) {
	n, cond, graphEnc, err := closureParts(pd)
	if err != nil {
		return nil, err
	}
	kind, u, v, err := DecodeEdgeDelta(delta, n)
	if err != nil {
		return nil, err
	}
	g, err := graph.Decode(graphEnc)
	if err != nil {
		return nil, err
	}
	if g.N() != n {
		return nil, fmt.Errorf("schemes: closure appendix has %d vertices, header claims %d", g.N(), n)
	}
	changed, err := editGraph(g, kind, u, v)
	if err != nil {
		return nil, err
	}
	if !changed {
		return pd, nil
	}
	var unchanged bool
	if kind == core.DeltaDelete {
		unchanged = g.Reachable(u, v)
	} else {
		unchanged, err = graph.ProbeCondensedClosure(cond, n, u, v)
		if err == nil && unchanged && !g.Directed() {
			unchanged, err = graph.ProbeCondensedClosure(cond, n, v, u)
		}
		if err != nil {
			return nil, fmt.Errorf("schemes: %w", err)
		}
	}
	if !unchanged {
		return closureBytes(g)
	}
	enc := g.Encode()
	head := pd[:8+len(cond)]
	out := make([]byte, 0, len(head)+binary.MaxVarintLen64+len(enc))
	return appendClosureGraph(append(out, head...), enc), nil
}

// applyEdgeToGraph decodes a graph, applies one edge delta, and re-encodes
// — both the ⊕ of the reachability schemes and the whole maintenance step
// of the BFS baseline (whose preprocessed string is the graph itself).
func applyEdgeToGraph(d, delta []byte) ([]byte, error) {
	g, err := graph.Decode(d)
	if err != nil {
		return nil, err
	}
	kind, u, v, err := DecodeEdgeDelta(delta, g.N())
	if err != nil {
		return nil, err
	}
	if _, err := editGraph(g, kind, u, v); err != nil {
		return nil, err
	}
	return g.Encode(), nil
}

// IncrementalReachabilityBFS maintains the BFS-per-query baseline, whose
// Π(D) is D: an edge delta edits the graph encoding directly. There is
// nothing index-shaped to maintain, which is exactly why the baseline pays
// O(|V|+|E|) per query forever.
func IncrementalReachabilityBFS() *core.IncrementalScheme {
	return &core.IncrementalScheme{
		Scheme:      ReachabilityBFSScheme(),
		ApplyDelta:  applyEdgeToGraph,
		ApplyUpdate: applyEdgeToGraph,
		DeltaNote:   "O(|V|+|E|) re-encode (Π = D); queries stay O(|V|+|E|)",
	}
}
