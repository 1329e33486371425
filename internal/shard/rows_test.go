package shard

// The portal reach rows, pinned three ways: against the probing merge they
// replaced (kept here, test-only, as the oracle), against the unsharded
// closure of the current graph, and against themselves across PATCH
// batches, save → reload, and concurrent maintenance.

import (
	"fmt"
	"math/rand"
	"testing"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// probingAnswer is the merge the rows replaced: the same-shard verdict
// from an encoded local query, then one encoded local probe per portal of
// the two shards, joined through the overlay closure. It reads only the
// persisted summary and the members' own answerers, never the view.
func probingAnswer(ss *ShardedStore, q []byte) (bool, error) {
	u, v, err := schemes.DecodeNodePairQuery(q)
	if err != nil {
		return false, err
	}
	c := ss.Committed()
	rs, err := decodeReachSummary(c.Summary(), ss.Asn)
	if err != nil {
		return false, err
	}
	if u < 0 || u >= rs.n || v < 0 || v >= rs.n {
		return false, fmt.Errorf("shard: node pair (%d,%d) out of range [0,%d)", u, v, rs.n)
	}
	probe := func(s, a, b int) (bool, error) {
		return c.Members()[s].Answerer.Answer(schemes.NodePairQuery(int(rs.local[a]), int(rs.local[b])))
	}
	su, sv := ss.Asn.Shard(int64(u)), ss.Asn.Shard(int64(v))
	if su == sv {
		if ok, err := probe(su, u, v); err != nil || ok {
			return ok, err
		}
	}
	var from []int
	for _, pi := range rs.byShard[su] {
		ok, err := probe(su, u, rs.portals[pi])
		if err != nil {
			return false, err
		}
		if ok {
			from = append(from, pi)
		}
	}
	for _, qi := range rs.byShard[sv] {
		ok, err := probe(sv, rs.portals[qi], v)
		if err != nil {
			return false, err
		}
		for _, pi := range from {
			if ok && rs.overlay.Reach(pi, qi) {
				return true, nil
			}
		}
	}
	return false, nil
}

// assertRowsProbingClosure checks every vertex pair three ways: the rows
// merge (single and batch), the probing oracle, and the unsharded closure
// of the current graph.
func assertRowsProbingClosure(t *testing.T, ss *ShardedStore, cur *graph.Graph, step string) {
	t.Helper()
	want := graph.NewClosure(cur)
	var qs [][]byte
	for u := 0; u < cur.N(); u++ {
		for v := 0; v < cur.N(); v++ {
			q := schemes.NodePairQuery(u, v)
			qs = append(qs, q)
			rows, err := ss.Answer(q)
			if err != nil {
				t.Fatalf("%s: rows merge (%d,%d): %v", step, u, v, err)
			}
			probing, err := probingAnswer(ss, q)
			if err != nil {
				t.Fatalf("%s: probing merge (%d,%d): %v", step, u, v, err)
			}
			if rows != probing || rows != want.Reach(u, v) {
				t.Fatalf("%s: (%d,%d): rows %v, probing %v, unsharded closure %v", step, u, v, rows, probing, want.Reach(u, v))
			}
		}
	}
	batch, err := ss.AnswerBatch(qs, 3)
	if err != nil {
		t.Fatalf("%s: batch: %v", step, err)
	}
	for i, got := range batch {
		if u, v := i/cur.N(), i%cur.N(); got != want.Reach(u, v) {
			t.Fatalf("%s: batch (%d,%d) = %v, unsharded closure %v", step, u, v, got, want.Reach(u, v))
		}
	}
}

// portalSet reads the committed summary's portal vertices.
func portalSet(t *testing.T, ss *ShardedStore) map[int]bool {
	t.Helper()
	rs, err := decodeReachSummary(ss.Committed().Summary(), ss.Asn)
	if err != nil {
		t.Fatal(err)
	}
	set := map[int]bool{}
	for _, p := range rs.portals {
		set[p] = true
	}
	return set
}

// sparseGraph is a seeded random graph sparse enough that some vertices
// carry no cross-shard edge under any of the tested assignments.
func sparseGraph(n, m int, directed bool, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n, directed)
	for g.M() < m {
		if u, v := rng.Intn(n), rng.Intn(n); u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
			g.Normalize()
		}
	}
	return g
}

// withIsolated is c plus four isolated vertices: under a cut through every
// community every community vertex has a cross edge, and the scripted
// portal of TestRowsMergeDifferential needs a vertex with none.
func withIsolated(c *graph.Graph) *graph.Graph {
	g := graph.New(c.N()+4, true)
	for _, e := range c.Edges() {
		g.MustAddEdge(e[0], e[1])
	}
	g.Normalize()
	return g
}

// TestRowsMergeDifferential: rows-merge ≡ probing-merge ≡ unsharded
// closure on random directed and undirected graphs and a community graph,
// split along its communities and through them, × {closure, labels} × n ∈
// {2, 4, manyParts} key ranges, after every batch of a mixed insert/delete sequence
// (inserts of present edges included) that creates and retires a portal,
// and across save → reload. Split along its communities — four strongly
// connected ones of ten — a shard holds local classes of many portals,
// whose rows and overlay arcs are built per class; cut through them, most
// portals are classes of their own.
func TestRowsMergeDifferential(t *testing.T) {
	shapes := []struct {
		name string
		g    *graph.Graph
	}{
		{"directed=true", sparseGraph(40, 26, true, 31)},
		{"directed=false", sparseGraph(40, 26, false, 31)},
		{"community", withIsolated(graph.CommunityGraph(4, 10, 24, 33))},
		{"community-scattered", withIsolated(scatteredCommunity(4, 8, 24, 33, 4))},
	}
	for _, shape := range shapes {
		base, nv := shape.g, shape.g.N()
		for _, scheme := range []*core.Scheme{schemes.ReachabilityScheme(), schemes.ReachabilityLabelsScheme()} {
			for _, n := range []int{2, 4, manyParts} {
				t.Run(fmt.Sprintf("%s/%s/range/n=%d", shape.name, scheme.Name(), n), func(t *testing.T) {
					dir := t.TempDir()
					reg := store.NewRegistry(dir)
					ss, err := RegisterSharded(reg, "g", scheme, n, base.Encode())
					if err != nil {
						t.Fatal(err)
					}
					cur := base.Clone()
					assertRowsProbingClosure(t, ss, cur, "registered")
					reload := func(step string) {
						ss, err = RegisterSharded(store.NewRegistry(dir), "g", scheme, n, base.Encode())
						if err != nil {
							t.Fatal(err)
						}
						if !ss.WasLoaded() {
							t.Fatalf("%s: reload re-preprocessed", step)
						}
						assertRowsProbingClosure(t, ss, cur, step)
					}
					// The scripted vertex: no cross edge at registration, so the
					// batch that gives it one must create a portal and the batch
					// that takes it away must retire it. Random batches keep off it.
					portals := portalSet(t, ss)
					pu, pv := -1, -1
					for u := 0; u < nv && pu < 0; u++ {
						for v := 0; v < nv; v++ {
							if !portals[u] && ss.Asn.Shard(int64(u)) != ss.Asn.Shard(int64(v)) && !cur.HasEdge(u, v) && !cur.HasEdge(v, u) {
								pu, pv = u, v
								break
							}
						}
					}
					if pu < 0 {
						t.Fatal("no portal-free vertex with a cross-shard non-neighbour; pick another seed")
					}
					rng := rand.New(rand.NewSource(77))
					randomBatch := func() [][]byte {
						var batch [][]byte
						for k := 1 + rng.Intn(3); k > 0; k-- {
							u, v := rng.Intn(nv), rng.Intn(nv)
							if u == v || u == pu || v == pu {
								continue
							}
							switch present := cur.HasEdge(u, v); {
							case present && rng.Intn(2) == 0:
								batch = append(batch, schemes.EdgeDeleteDelta(u, v))
								if err := cur.RemoveEdge(u, v); err != nil {
									t.Fatal(err)
								}
							case present:
								batch = append(batch, schemes.EdgeDelta(u, v)) // no-op
							default:
								batch = append(batch, schemes.EdgeDelta(u, v))
								cur.MustAddEdge(u, v)
							}
							cur.Normalize()
						}
						return batch
					}
					apply := func(step string, batch [][]byte) {
						if len(batch) == 0 {
							return
						}
						ds, _ := reg.GetDataset("g")
						if _, err := reg.ApplyDelta("g", batch); err != nil {
							t.Fatalf("%s: %v", step, err)
						}
						ss = ds.(*ShardedStore)
						assertRowsProbingClosure(t, ss, cur, step)
					}
					for i := 0; i < 3; i++ {
						apply(fmt.Sprintf("random batch %d", i), randomBatch())
					}
					cur.MustAddEdge(pu, pv)
					cur.Normalize()
					apply("portal-creating batch", [][]byte{schemes.EdgeDelta(pu, pv)})
					if !portalSet(t, ss)[pu] {
						t.Fatalf("cross edge (%d,%d) did not make %d a portal", pu, pv, pu)
					}
					apply("random batch with the new portal", randomBatch())

					// Restart over the same directory and keep patching the reloaded
					// dataset: the rows are derived again from the persisted summary.
					reg = store.NewRegistry(dir)
					reload("reloaded mid-sequence")
					if _, err := RegisterSharded(reg, "g", scheme, n, base.Encode()); err != nil {
						t.Fatal(err)
					}
					if err := cur.RemoveEdge(pu, pv); err != nil {
						t.Fatal(err)
					}
					apply("portal-retiring batch", [][]byte{schemes.EdgeDeleteDelta(pu, pv)})
					if portalSet(t, ss)[pu] {
						t.Fatalf("deleting its only cross edge left %d a portal", pu)
					}
					for i := 3; i < 6; i++ {
						apply(fmt.Sprintf("random batch %d", i), randomBatch())
					}
					reload("reloaded at the end")
				})
			}
		}
	}
}

// TestRowsMergedOverlayClass: a portal overlay whose closure merges two
// acyclic portals — vertices 0 and 1 of shard 0 (range, two shards), with no
// ancestors and the same cross edge successor 4 — into one class. The class
// row is what both portals reach, not either portal itself, so a portal's
// row must add its own bit to it; a row expanded for one portal and reused
// for its class-mate answers 1 ⇝ 0 (or 0 ⇝ 1) true. Every pair's sharded
// verdict must equal the unsharded closure's, under both reach schemes.
func TestRowsMergedOverlayClass(t *testing.T) {
	// Shard 0 = {0, 1, 2, 3}: 2 → 1 and 3 → 0 inside it; shard 1 = {4..7}: 4 → 5.
	g := graph.New(8, true)
	for _, e := range [][2]int{{0, 4}, {1, 4}, {2, 1}, {3, 0}, {4, 5}} {
		g.MustAddEdge(e[0], e[1])
	}
	for _, scheme := range []*core.Scheme{schemes.ReachabilityScheme(), schemes.ReachabilityLabelsScheme()} {
		ss, err := RegisterSharded(store.NewRegistry(t.TempDir()), "g", scheme, 2, g.Encode())
		if err != nil {
			t.Fatal(err)
		}
		rs, err := decodeReachSummary(ss.Committed().Summary(), ss.Asn)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.portals) != 3 || rs.overlay.Classes() != 2 || rs.overlay.Class(0) != rs.overlay.Class(1) {
			t.Fatalf("%s: portals %v in %d overlay classes; the fixture wants 0 and 1 merged", scheme.Name(), rs.portals, rs.overlay.Classes())
		}
		assertRowsProbingClosure(t, ss, g, scheme.Name())
	}
}

// TestRowsAreInterned: every vertex of one local SCC shares both rows, so
// a graph of strongly connected communities holds a handful of distinct
// rows, not two per vertex.
func TestRowsAreInterned(t *testing.T) {
	g := graph.CommunityGraph(8, 32, 64, 5)
	scheme := schemes.ReachabilityScheme()
	ss, err := Build("g", scheme, ForScheme(scheme.Name()), RangePartitioner{}, 4, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	rs := ss.Committed().View().(*reachSummary)
	// 8 communities, each one SCC: at most an out and an in row apiece,
	// plus the shared zero row.
	if distinct := len(rs.rows) / rs.words; distinct > 2*8+1 {
		t.Fatalf("%d distinct rows over %d vertices in 8 SCCs, want ≤ 17", distinct, g.N())
	}
}

// TestShardedAnswerAllocs pins the answer path's allocation budget: the
// rows merge allocates nothing, well inside the ≤ 2 the roadmap allows.
func TestShardedAnswerAllocs(t *testing.T) {
	g := graph.CommunityGraph(4, 16, 40, 7)
	scheme := schemes.ReachabilityScheme()
	ss, err := Build("g", scheme, ForScheme(scheme.Name()), RangePartitioner{}, 4, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	same, cross := schemes.NodePairQuery(1, 9), schemes.NodePairQuery(1, 60)
	if ss.Asn.Shard(1) != ss.Asn.Shard(9) || ss.Asn.Shard(1) == ss.Asn.Shard(60) {
		t.Fatal("query fixtures do not cover a same-shard and a cross-shard pair")
	}
	for name, q := range map[string][]byte{"same-shard": same, "cross-shard": cross} {
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := ss.Answer(q); err != nil {
				t.Fatal(err)
			}
		}); allocs > 2 {
			t.Errorf("%s ShardedStore.Answer allocates %.1f times per query, want ≤ 2", name, allocs)
		}
	}
}
