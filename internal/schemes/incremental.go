package schemes

// Incremental preprocessing (§1 justification (3); see core.Scheme's
// ApplyDelta): maintain Π(D ⊕ ∆D) from Π(D) and ∆D instead of
// re-preprocessing. Each scheme constructor sets its own ApplyDelta and ⊕
// (ApplyUpdate) from this file; the instances are
//
//   - the sorted key file of the selection and list-membership
//     schemes under insertions and deletions (a merge or a filter streamed
//     into an exactly-sized new file in O(|Π| + |∆D|·b), versus O(|D|·b)
//     re-sorting, b the key bytes that vary — see dedupSorted);
//   - the reachability closure under edge insertions and deletions (one arc
//     id spliced into the graph's arc file when no fact changes, a rebuild
//     over the condensation when one can have);
//   - the 2-hop labels, relabelled from their graph appendix (labels.go);
//   - the BFS-per-query baseline, whose "preprocessed" string is the graph
//     itself, so maintenance is editing the edge list.
//
// The serving layers need no table of these: a store applies a delta through
// the ApplyDelta of the scheme it was registered with.

import (
	"fmt"
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

// IncrementalForScheme returns the Catalog scheme named name when it has an
// incremental form, or nil.
func IncrementalForScheme(name string) *core.Scheme {
	for _, s := range Catalog() {
		if s.SchemeName == name && s.ApplyDelta != nil {
			return s
		}
	}
	return nil
}

// MaintainableSchemes lists the names of the Catalog schemes with an
// incremental form, sorted, for error messages and docs.
func MaintainableSchemes() []string {
	var names []string
	for _, s := range Catalog() {
		if s.ApplyDelta != nil {
			names = append(names, s.SchemeName)
		}
	}
	slices.Sort(names)
	return names
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

// applyListKeys is the ⊕ of list membership. Insert adds only absent
// elements, as the key file's merge skips present keys, so maintained Π is
// byte-equal to a fresh Preprocess of the updated list.
func applyListKeys(d, delta []byte) ([]byte, error) {
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

// applyClosureDelta is the closure-matrix scheme's ApplyDelta, in both
// directions: apply the edge to the arc file, and ask whether any
// reachability fact can have changed.
//
// Inserting (u, v) changes none when u already reaches v (and v reaches u, for
// an undirected edge): every new path through the arc has an old one beside
// it. That is one probe of the undecoded closure, so such an insert never
// decodes the graph: nextGEQ finds the arc absent and its place, and one id is
// spliced into the arc file. Deleting (u, v) changes none when u still reaches
// v in the surviving graph — Vigny's observation (arXiv:2010.02982) that
// retractions are cheap when connectivity survives: every old path through
// the arc reroutes along the surviving u⇝v path. That takes the graph, so a
// delete decodes the arc file and searches it. In both cases the closure is
// bitwise unchanged and the edited arc file is spliced onto the old head:
// every class — a strongly connected component, or acyclic vertices with the
// same ancestors and descendants — is a function of the reachability
// relation, which did not move. Otherwise classes may have merged or split,
// and Π is rebuilt from the graph by the kernel Preprocess runs; an insert
// between two members of one acyclic class is one such, since neither reaches
// the other and the probe reads false. Class ids are canonical and the arc
// file a function of the edge set, so either way the result is byte-equal to
// Preprocess(D ⊕ ∆D).
//
// What the rebuild costs is what the matrix costs (BenchmarkClosureApplyDelta,
// -benchtime 20x -count 3 on a 2-vCPU Xeon; docs/perf/BENCH_21.md §5 has it
// beside the row maintenance it replaced, and docs/perf/BENCH_28.md the arc
// file's splice): on the benchmark workload's graph — 4096 vertices, 22–31
// classes — a fact-changing edge is 1.3–1.6 ms; on a DAG every vertex is a
// class, the matrix is n² bits again, and the rebuild is 13–14 ms at 4096
// vertices and 180–210 ms at 16384. Most of a DAG's rebuild is merge
// transposing the rows and back (59 % of applyClosureDelta's CPU at 4096):
// every sink has the same empty descendant row, so the ancestor pass runs on
// any DAG with two sinks, and on these DAGs it merges nothing. In short:
// O(log) to find the arc and one O(1) probe (insert), O(|V|+|E|) to decode
// and search (delete), a splice of the arc file; a rebuild over the
// condensation — the whole of Preprocess — only when a fact can have changed.
func applyClosureDelta(pd, delta []byte) ([]byte, error) {
	n, cond, arcs, err := closureParts(pd)
	if err != nil {
		return nil, err
	}
	kind, u, v, err := DecodeEdgeDelta(delta, n)
	if err != nil {
		return nil, err
	}
	insert, holds := kind == core.DeltaInsert, false
	if insert {
		if has, err := arcs.Has(u, v); err != nil || has {
			return pd, err
		}
		// Undirected reachability is symmetric: one probe decides both ways.
		if holds, err = graph.ProbeCondensedClosure(cond, n, u, v); err != nil {
			return nil, fmt.Errorf("schemes: %w", err)
		}
	}
	next, had, err := arcs.Edit(u, v, insert)
	if err != nil {
		return nil, err
	}
	if !insert && !had {
		return nil, fmt.Errorf("graph: edge (%d,%d) not present", u, v)
	}
	if !holds {
		g, err := next.graph()
		if err != nil {
			return nil, err
		}
		if insert || !g.Reachable(u, v) {
			return closureBytes(g)
		}
	}
	head := pd[:8+len(cond)]
	return append(append(make([]byte, 0, len(head)+len(next.Bytes())), head...), next.Bytes()...), nil
}

// applyEdgeToGraph decodes a graph, applies one edge delta, and re-encodes
// — both the ⊕ of the reachability schemes and the whole ApplyDelta of the
// BFS baseline, whose Π(D) is D: an O(|V|+|E|) re-encode. There is nothing
// index-shaped to maintain, which is exactly why the baseline pays
// O(|V|+|E|) per query forever.
func applyEdgeToGraph(d, delta []byte) ([]byte, error) {
	c, err := graph.Decode(d)
	if err != nil {
		return nil, err
	}
	g := c.Graph()
	kind, u, v, err := DecodeEdgeDelta(delta, g.N())
	if err != nil {
		return nil, err
	}
	if _, err := editGraph(g, kind, u, v); err != nil {
		return nil, err
	}
	return g.Encode(), nil
}
