package shard

// The portal reach rows, pinned three ways: against the probing merge they
// replaced (kept here, test-only, as the oracle), against the unsharded
// closure of the current graph, and against themselves across PATCH
// batches, save → reload, a failing shard, and concurrent maintenance.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
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
	c := ss.state.Load()
	rs, err := decodeReachSummary(c.summary)
	if err != nil {
		return false, err
	}
	if u < 0 || u >= rs.n || v < 0 || v >= rs.n {
		return false, fmt.Errorf("shard: node pair (%d,%d) out of range [0,%d)", u, v, rs.n)
	}
	probe := func(s, a, b int) (bool, error) {
		return c.shards[s].answer(schemes.NodePairQuery(int(rs.local[a]), int(rs.local[b])))
	}
	su, sv := ss.Asn.Shard(int64(u)), ss.Asn.Shard(int64(v))
	if su == sv {
		if ok, err := probe(su, u, v); err != nil || ok {
			return ok, err
		}
	}
	var from []int
	for _, p := range rs.byShard[su] {
		ok, err := probe(su, u, p)
		if err != nil {
			return false, err
		}
		if ok {
			from = append(from, rs.portal[p])
		}
	}
	for _, p := range rs.byShard[sv] {
		ok, err := probe(sv, p, v)
		if err != nil {
			return false, err
		}
		for _, pi := range from {
			if ok && rs.overlay.Reach(pi, rs.portal[p]) {
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
	rs, err := decodeReachSummary(ss.state.Load().summary)
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

// TestRowsMergeDifferential: rows-merge ≡ probing-merge ≡ unsharded
// closure on random directed and undirected graphs × {closure, labels,
// bfs} × {hash, range} × n ∈ {2, 4}, after every batch of a mixed
// insert/delete sequence (inserts of present edges included) that creates
// and retires a portal, and
// across save → reload. Hash partitioning interleaves portal indices
// across shards (consecutive overlay indices belong to different shards),
// which the per-shard row builder must map back correctly.
func TestRowsMergeDifferential(t *testing.T) {
	const nv = 40
	for _, directed := range []bool{true, false} {
		base := sparseGraph(nv, 26, directed, 31)
		for _, scheme := range []*core.Scheme{schemes.ReachabilityScheme(), schemes.ReachabilityLabelsScheme(), schemes.ReachabilityBFSScheme()} {
			for _, p := range []Partitioner{HashPartitioner{}, RangePartitioner{}} {
				for _, n := range []int{2, 4} {
					t.Run(fmt.Sprintf("directed=%v/%s/%s/n=%d", directed, scheme.Name(), p.Name(), n), func(t *testing.T) {
						dir := t.TempDir()
						reg := store.NewRegistry(dir)
						ss, err := RegisterSharded(reg, "g", scheme, p, n, base.Encode())
						if err != nil {
							t.Fatal(err)
						}
						cur := base.Clone()
						assertRowsProbingClosure(t, ss, cur, "registered")
						reload := func(step string) {
							ss, err = RegisterSharded(store.NewRegistry(dir), "g", scheme, p, n, base.Encode())
							if err != nil {
								t.Fatal(err)
							}
							if !ss.WasLoaded() {
								t.Fatalf("%s: reload re-preprocessed", step)
							}
							assertRowsProbingClosure(t, ss, cur, step)
						}
						if ss.Sharding.SplitDelta == nil {
							reload("reloaded") // BFS: no delta routing, the static check is the suite
							return
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
						if _, err := RegisterSharded(reg, "g", scheme, p, n, base.Encode()); err != nil {
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
	rs := ss.state.Load().view.(*reachSummary)
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

// flakyShardScheme is the closure scheme with an injected Prepare fault:
// while failing is set, preparing the payload in bad errors.
func flakyShardScheme(failing *atomic.Bool, bad *[]byte) *core.Scheme {
	sch := *schemes.ReachabilityScheme()
	prepare := sch.PrepareAnswerer
	sch.PrepareAnswerer = func(pd []byte) (core.Answerer, error) {
		if failing.Load() && bytes.Equal(pd, *bad) {
			return nil, errors.New("injected decode fault")
		}
		return prepare(pd)
	}
	return &sch
}

// TestShardedStickyPrepareIsolated is the sharded sticky-Prepare
// regression: a shard whose Prepare failed fails exactly the queries with
// an endpoint in it — it must not poison the row build for the others —
// a PATCH that has to read it is refused with nothing applied, a reload
// under the fault keeps the same isolation, and RetryPrepare heals the
// shard and rebuilds its rows.
func TestShardedStickyPrepareIsolated(t *testing.T) {
	g := graph.CommunityGraph(4, 8, 14, 909)
	var failing atomic.Bool
	var bad []byte
	scheme := flakyShardScheme(&failing, &bad)
	dir := t.TempDir()
	reg := store.NewRegistry(dir)
	ss, err := RegisterSharded(reg, "g", scheme, RangePartitioner{}, 4, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	const sick = 2
	_, _, members := ss.Committed()
	bad = members[sick].Prep
	want := graph.NewClosure(g)

	check := func(ss *ShardedStore, step string, faulted bool) {
		t.Helper()
		touched, untouched := 0, 0
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				got, err := ss.Answer(schemes.NodePairQuery(u, v))
				if faulted && (ss.Asn.Shard(int64(u)) == sick || ss.Asn.Shard(int64(v)) == sick) {
					var pe *store.PrepareError
					if !errors.As(err, &pe) {
						t.Fatalf("%s: (%d,%d) touches the failed shard but returned (%v, %v), want a PrepareError", step, u, v, got, err)
					}
					touched++
					continue
				}
				if err != nil || got != want.Reach(u, v) {
					t.Fatalf("%s: (%d,%d) = (%v, %v), want %v", step, u, v, got, err, want.Reach(u, v))
				}
				untouched++
			}
		}
		if faulted && (touched == 0 || untouched == 0) {
			t.Fatalf("%s: %d queries touched the failed shard, %d did not; both must be exercised", step, touched, untouched)
		}
	}

	check(ss, "healthy", false)
	failing.Store(true)
	if err := ss.RetryPrepare(); err == nil {
		t.Fatal("RetryPrepare under the fault reported success")
	}
	check(ss, "one shard failed", true)

	// The failed shard owns several portals, so the overlay rebuild must
	// read it: the batch is refused whole.
	patch := [][]byte{schemes.EdgeDelta(0, 1)}
	if _, err := reg.ApplyDelta("g", patch); err == nil {
		t.Fatal("PATCH over a failed shard was accepted")
	}
	if ss.Version() != 0 {
		t.Fatalf("refused PATCH moved the version to %d", ss.Version())
	}
	check(ss, "after the refused PATCH", true)

	// A restart under the fault prepares the view eagerly with the shard
	// still failing — same isolation, no failed load.
	reloaded, err := RegisterSharded(store.NewRegistry(dir), "g", scheme, RangePartitioner{}, 4, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	check(reloaded, "reloaded under the fault", true)

	failing.Store(false)
	for _, s := range []*ShardedStore{ss, reloaded} {
		if err := s.RetryPrepare(); err != nil {
			t.Fatalf("RetryPrepare after the heal: %v", err)
		}
		check(s, "healed", false)
	}
	if _, err := reg.ApplyDelta("g", patch); err != nil {
		t.Fatalf("PATCH after the heal: %v", err)
	}
}
