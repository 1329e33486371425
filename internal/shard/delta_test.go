package shard

// The maintenance suite of the write side, one table per protocol whose rows
// are layouts (crash_test.go has the crash tables and the oracle):
//
//   - TestMaintainedVsRebuiltDifferential: a Registry.ApplyDelta-maintained
//     dataset, plain or split into 2, 3 or 64 key ranges, equals the
//     oracle — a from-scratch, unsharded Preprocess(D ⊕ ∆D) — after every
//     delta of random sequences and across a save → reload →
//     continue-patching cycle.
//   - TestConcurrentDeltasAndQueries: PATCH races queries under the race
//     detector, and no reader observes a torn Π.
//
// Then the contracts only a sharded dataset has: the portal summary under
// cross-shard deltas, the empty batch on the exported seam, and the figures
// read from one committed value.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// deltaScenarios builds the differential scenarios from one seed, one delta
// per batch, so that every version is a step the oracle checks.
func deltaScenarios(seed int64) []scenario {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, 48)
	for i := range keys {
		keys[i] = int64(rng.Intn(200) * 2)
	}
	keyDeltas := func() [][][]byte {
		// The fixed prefix spans the full dynamism story — delete present
		// keys alongside an absent tombstone, re-insert one, delete it
		// again — and the random tail mixes both kinds (tombstones are
		// idempotent, so random delete targets are safe). Eight deltas put
		// delete/re-insert on both sides of the save→reload boundary
		// (half = 4).
		ds := [][][]byte{
			{schemes.KeysDeleteDelta([]int64{keys[0], keys[1], 900_001})},
			{schemes.KeysDelta([]int64{keys[0], keys[2]})},
			{schemes.KeysDeleteDelta([]int64{keys[0]})},
		}
		for len(ds) < 8 {
			batch := make([]int64, 1+rng.Intn(4))
			for j := range batch {
				batch[j] = int64(rng.Intn(500)) // mix of fresh, duplicate, odd, even
			}
			if rng.Intn(3) == 1 {
				ds = append(ds, [][]byte{schemes.KeysDeleteDelta(batch)})
			} else {
				ds = append(ds, [][]byte{schemes.KeysDelta(batch)})
			}
		}
		return ds
	}
	keyProbes := func() [][]byte {
		ps := make([][]byte, 0, 120)
		for c := int64(0); c < 120; c++ {
			ps = append(ps, schemes.PointQuery(4*c+rng.Int63n(5)))
		}
		return ps
	}
	rangeProbes := make([][]byte, 0, 60)
	for i := 0; i < 60; i++ {
		lo := rng.Int63n(500)
		rangeProbes = append(rangeProbes, schemes.RangeQuery(lo, lo+rng.Int63n(8)))
	}
	// A community graph keeps some structure per shard but has cross-shard
	// edges, so deltas exercise both local closure maintenance and the
	// portal summary.
	g := graph.CommunityGraph(4, 10, 16, seed)
	// Edge retraction of an absent edge is an error (unlike key
	// tombstones), so deletes target edges this sequence itself inserted,
	// on pairs absent from the base graph — insert, delete, re-insert,
	// delete again, with the save→reload boundary (half = 4) in the middle
	// of the churn.
	used := map[[2]int]bool{}
	freshPair := func() (int, int) {
		for {
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u != v && !g.HasEdge(u, v) && !used[[2]int{u, v}] {
				used[[2]int{u, v}] = true
				return u, v
			}
		}
	}
	u1, v1 := freshPair()
	u2, v2 := freshPair()
	u3, v3 := freshPair()
	edgeDeltas := [][][]byte{
		{schemes.EdgeDelta(u1, v1)},
		{schemes.EdgeDelta(u2, v2)},
		{schemes.EdgeDeleteDelta(u1, v1)},
		{schemes.EdgeDelta(u1, v1)}, // re-insert across the reload boundary
		{schemes.EdgeDeleteDelta(u2, v2)},
		{schemes.EdgeDeleteDelta(u1, v1)}, // delete the re-inserted edge again
		{schemes.EdgeDelta(u3, v3)},
		{schemes.EdgeDelta(u3, v3)}, // insert of a present edge: no-op
	}
	pairProbes := make([][]byte, 0, 200)
	for i := 0; i < 200; i++ {
		pairProbes = append(pairProbes, schemes.NodePairQuery(rng.Intn(g.N()), rng.Intn(g.N())))
	}
	return []scenario{
		{"point-selection/sorted-keys", schemes.PointSelectionScheme(), schemes.RelationFromKeys(keys), keyDeltas(), keyProbes()},
		{"range-selection/sorted-keys", schemes.PointSelectionScheme(), schemes.RelationFromKeys(keys), keyDeltas(), rangeProbes}, // its RangeQuery
		{"list-membership/sorted", schemes.ListMembershipScheme(), schemes.EncodeList(keys), keyDeltas(), keyProbes()},
		{"reachability/closure-matrix", schemes.ReachabilityScheme(), g.Encode(), edgeDeltas, pairProbes},
		{"reachability/bfs-per-query", schemes.ReachabilityBFSScheme(), g.Encode(), edgeDeltas, pairProbes},
		{"reachability/labels", schemes.ReachabilityLabelsScheme(), g.Encode(), edgeDeltas, pairProbes},
		undirectedReachScenario(seed),
	}
}

// undirectedReachScenario pins the orientation-flag path: ⊕ on an undirected
// graph inserts a symmetric edge, so the maintained closure must OR both
// arcs — a directed-only maintenance diverges on the reverse direction.
func undirectedReachScenario(seed int64) scenario {
	rng := rand.New(rand.NewSource(seed + 17))
	// Two disconnected undirected components, so edge deltas genuinely
	// create new two-way reachability across them.
	g := graph.New(24, false)
	for v := 1; v < 12; v++ {
		g.MustAddEdge(v, rng.Intn(v))
	}
	for v := 13; v < 24; v++ {
		g.MustAddEdge(v, 12+rng.Intn(v-12))
	}
	a, b := rng.Intn(12), 12+rng.Intn(12)
	other := func() (int, int) {
		for {
			u, v := rng.Intn(12), 12+rng.Intn(12)
			if u != a || v != b {
				return u, v
			}
		}
	}
	o1u, o1v := other()
	o2u, o2v := other()
	deltas := [][][]byte{
		{schemes.EdgeDelta(a, b)},
		{schemes.EdgeDelta(o1u, o1v)},
		{schemes.EdgeDeleteDelta(b, a)}, // reversed orientation: undirected delete
		{schemes.EdgeDelta(a, b)},       // re-bridge the components
		{schemes.EdgeDeleteDelta(a, b)},
		{schemes.EdgeDelta(o2u, o2v)},
	}
	probes := make([][]byte, 0, 200)
	for i := 0; i < 200; i++ {
		probes = append(probes, schemes.NodePairQuery(rng.Intn(24), rng.Intn(24)))
	}
	return scenario{"reachability/closure-matrix (undirected)", schemes.ReachabilityScheme(), g.Encode(), deltas, probes}
}

// scatteredReachScenarios are the community scenarios of both sharded
// reachability schemes on a graph whose members alternate between the two
// halves of the key space (scatteredCommunity), so a split into key ranges
// cuts through every community: most vertices are portals and the deltas
// land on the cross-edge summary. Their own rng leaves deltaScenarios'
// sequences as they were.
func scatteredReachScenarios(seed int64) []scenario {
	rng := rand.New(rand.NewSource(seed + 31))
	g := scatteredCommunity(4, 10, 16, seed, 2)
	fresh := func() (int, int) {
		for {
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u != v && !g.HasEdge(u, v) {
				return u, v
			}
		}
	}
	u1, v1 := fresh()
	u2, v2 := fresh()
	for u2 == u1 && v2 == v1 {
		u2, v2 = fresh()
	}
	deltas := [][][]byte{
		{schemes.EdgeDelta(u1, v1)},
		{schemes.EdgeDelta(u2, v2)},
		{schemes.EdgeDeleteDelta(u1, v1)},
		{schemes.EdgeDelta(u1, v1)}, // re-insert across the reload boundary
		{schemes.EdgeDeleteDelta(u2, v2)},
		{schemes.EdgeDeleteDelta(u1, v1)},
	}
	probes := make([][]byte, 0, 200)
	for i := 0; i < 200; i++ {
		probes = append(probes, schemes.NodePairQuery(rng.Intn(g.N()), rng.Intn(g.N())))
	}
	return []scenario{
		{"reachability/closure-matrix (scattered)", schemes.ReachabilityScheme(), g.Encode(), deltas, probes},
		{"reachability/labels (scattered)", schemes.ReachabilityLabelsScheme(), g.Encode(), deltas, probes},
	}
}

// TestMaintainedVsRebuiltDifferential runs the differential scenarios of two
// seeds, and the scattered community scenarios, in every layout a scheme has
// — plain, and split into 2, 3 or manyParts key ranges — checking the
// maintained dataset against the oracle
// after every delta, and across a restart that must reload the maintained
// file (no Preprocess) and keep accepting deltas.
func TestMaintainedVsRebuiltDifferential(t *testing.T) {
	layouts := []layout{{"plain", 1}, {"range/2", 2}, {"range/3", 3}, {"range/64", manyParts}}
	for _, seed := range []int64{1207, 904} {
		for _, sc := range append(deltaScenarios(seed), scatteredReachScenarios(seed)...) {
			for _, l := range layouts {
				if l.n > 1 && ForScheme(sc.inc.Name()) == nil {
					continue // a scheme served unsharded only
				}
				t.Run(fmt.Sprintf("seed-%d/%s/%s", seed, sc.name, l.name), func(t *testing.T) {
					states, half := sc.states(t), len(sc.batches)/2
					dir := t.TempDir()
					reg := store.NewRegistry(dir)
					if _, err := l.register(reg, "d", sc.inc, sc.data); err != nil {
						t.Fatal(err)
					}
					for i, b := range sc.batches[:half] {
						if v, err := reg.ApplyDelta("d", b); err != nil || v != uint64(i+1) {
							t.Fatalf("delta %d: version %d, %v; want %d", i, v, err, i+1)
						}
						ds, _ := reg.GetDataset("d")
						assertOracle(t, sc, ds, states[i+1], fmt.Sprintf("step %d", i))
					}

					reg2 := store.NewRegistry(dir)
					ds, err := l.register(reg2, "d", sc.inc, sc.data)
					if err != nil {
						t.Fatal(err)
					}
					if !ds.WasLoaded() || reg2.PreprocessCount() != 0 || ds.Version() != uint64(half) || ds.ShardCount() != l.n {
						t.Fatalf("restart: loaded=%v, %d Preprocess calls, version %d, %d shards; want a load of %d shards at %d with none",
							ds.WasLoaded(), reg2.PreprocessCount(), ds.Version(), ds.ShardCount(), l.n, half)
					}
					assertOracle(t, sc, ds, states[half], "reloaded")
					for i, b := range sc.batches[half:] {
						if v, err := reg2.ApplyDelta("d", b); err != nil || v != uint64(half+i+1) {
							t.Fatalf("post-reload delta %d: version %d, %v; want %d", i, v, err, half+i+1)
						}
						assertOracle(t, sc, ds, states[half+i+1], fmt.Sprintf("step %d", half+i))
					}
				})
			}
		}
	}
}

// ask answers qs one by one when j is even and as one batch when it is odd,
// so both faces of the answer seam race the writer.
func ask(ds store.Dataset, j int, qs [][]byte) ([]bool, error) {
	if j%2 == 1 {
		return ds.AnswerBatch(qs, 2)
	}
	out := make([]bool, len(qs))
	for i, q := range qs {
		ok, err := ds.Answer(q)
		if err != nil {
			return nil, err
		}
		out[i] = ok
	}
	return out, nil
}

// TestConcurrentDeltasAndQueries races one PATCH writer against readers
// under the race detector, in every layout. Each race's batch i flips the
// verdicts of its queries from before to after, for good: a reader that read
// a version at which batch i had committed must see after, and one whose
// query sat between two equal version reads — no commit in between — must
// see exactly the verdicts of that version. Versions must be monotonic, and
// a sharded reach dataset must serve the rows derived from the summary it
// serves: a reader pairing a new summary with old rows (or the reverse) sees
// them disagree.
func TestConcurrentDeltasAndQueries(t *testing.T) {
	const readers, reads = 3, 400
	keys := make([]int64, 64)
	for i := range keys {
		keys[i] = int64(2 * i)
	}
	races := []struct {
		name          string
		inc           *core.Scheme
		data          []byte
		batches       int
		batch, query  func(i int) [][]byte
		before, after []bool
	}{
		// Batch i inserts key 1001+2i.
		{"inserts", schemes.PointSelectionScheme(), schemes.RelationFromKeys(keys), 40,
			func(i int) [][]byte { return [][]byte{schemes.KeysDelta([]int64{int64(1001 + 2*i)})} },
			func(i int) [][]byte { return [][]byte{schemes.PointQuery(int64(1001 + 2*i))} },
			[]bool{false}, []bool{true}},
		// Batch i atomically inserts key 1001+2i and deletes original key 2i:
		// a deleted key reappearing — a torn merge, a tombstone lost in the
		// shard routing, a torn swap — is what this race exists to catch.
		{"mixed-keys", schemes.PointSelectionScheme(), schemes.RelationFromKeys(keys), 40,
			func(i int) [][]byte {
				return [][]byte{schemes.KeysDelta([]int64{int64(1001 + 2*i)}), schemes.KeysDeleteDelta([]int64{int64(2 * i)})}
			},
			func(i int) [][]byte {
				return [][]byte{schemes.PointQuery(int64(1001 + 2*i)), schemes.PointQuery(int64(2 * i))}
			},
			[]bool{false, true}, []bool{true, false}},
		// Batch k inserts the chain edge k→k+1 and the back edge k+1→0 and
		// deletes batch k-1's back edge k→0 — creating and retiring portals
		// as it goes — so 0 ⇝ k+1 and k+1 ⇝ 0 hold exactly once batch k
		// committed.
		{"mixed-reach", schemes.ReachabilityScheme(), graph.New(20, true).Encode(), 18,
			func(k int) [][]byte {
				batch := [][]byte{schemes.EdgeDelta(k, k+1), schemes.EdgeDelta(k+1, 0)}
				if k > 0 {
					batch = append(batch, schemes.EdgeDeleteDelta(k, 0))
				}
				return batch
			},
			func(k int) [][]byte { return [][]byte{schemes.NodePairQuery(0, k+1), schemes.NodePairQuery(k+1, 0)} },
			[]bool{false, false}, []bool{true, true}},
	}
	layouts := []layout{{"plain", 1}, {"range", 3}, {"range/64", manyParts}}
	for _, rc := range races {
		for _, l := range layouts {
			t.Run(rc.name+"/"+l.name, func(t *testing.T) {
				reg := store.NewRegistry("") // memory-only: the race is in the swap, not the file
				ds, err := l.register(reg, "d", rc.inc, rc.data)
				if err != nil {
					t.Fatal(err)
				}
				committed := make([]uint64, rc.batches) // the version batch i commits at
				for i, v := 0, uint64(0); i < rc.batches; i++ {
					v += uint64(len(rc.batch(i)))
					committed[i] = v
				}
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < rc.batches; i++ {
						if v, err := reg.ApplyDelta("d", rc.batch(i)); err != nil || v != committed[i] {
							t.Errorf("batch %d: version %d, %v (want %d)", i, v, err, committed[i])
							return
						}
					}
				}()
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(r)))
						var last uint64
						for j := 0; j < reads; j++ {
							i := rng.Intn(rc.batches)
							before := ds.Version()
							if before < last {
								t.Errorf("version went backwards: %d after %d", before, last)
								return
							}
							last = before
							ans, err := ask(ds, j, rc.query(i))
							if err != nil {
								t.Errorf("query: %v", err)
								return
							}
							want := rc.after
							if before < committed[i] {
								if ds.Version() != before {
									continue // a commit landed during the query
								}
								want = rc.before
							}
							if !slices.Equal(ans, want) {
								t.Errorf("at version %d, batch %d (committed at %d): verdicts %v, want %v", before, i, committed[i], ans, want)
								return
							}
							if ss, ok := ds.(*ShardedStore); ok {
								c := ss.Committed()
								if rs, ok := c.View().(*reachSummary); ok && !bytes.Equal(encodeReachSummary(rs), c.Summary()) {
									t.Error("the served rows were not derived from the served summary")
									return
								}
							}
						}
					}(r)
				}
				wg.Wait()
				if got, want := ds.Version(), committed[rc.batches-1]; got != want {
					t.Fatalf("final version %d, want %d", got, want)
				}
				// After the race every batch's verdicts stuck.
				for i := 0; i < rc.batches; i++ {
					if ans, err := ds.AnswerBatch(rc.query(i), 2); err != nil || !slices.Equal(ans, rc.after) {
						t.Fatalf("after the race, batch %d: verdicts %v (%v), want %v", i, ans, err, rc.after)
					}
				}
			})
		}
	}
}

// TestCrossShardEdgeDeltaConnects pins the portal-overlay rebuild: a
// cross-shard edge insert between two previously disconnected components
// must flip the cross-shard verdict to true on the maintained store.
func TestCrossShardEdgeDeltaConnects(t *testing.T) {
	// Two chains, 0→1→2 and 3→4→5; range partitioning over 2 shards puts
	// them on different shards with no cross edges at registration.
	g := graph.New(6, true)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(4, 5)
	reg := store.NewRegistry(t.TempDir())
	scheme := schemes.ReachabilityScheme()
	ss, err := RegisterSharded(reg, "g", scheme, 2, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := ss.Answer(schemes.NodePairQuery(0, 5)); err != nil || ok {
		t.Fatalf("0⇝5 before the cross edge: %v, %v (want false)", ok, err)
	}
	if _, err := reg.ApplyDelta("g", [][]byte{schemes.EdgeDelta(2, 3)}); err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]int{{0, 5}, {2, 3}, {1, 4}} {
		ok, err := ss.Answer(schemes.NodePairQuery(q[0], q[1]))
		if err != nil || !ok {
			t.Fatalf("%d⇝%d after the cross edge: %v, %v (want true)", q[0], q[1], ok, err)
		}
	}
	if ok, _ := ss.Answer(schemes.NodePairQuery(5, 0)); ok {
		t.Fatal("5⇝0 should stay false (directed)")
	}

	// A multi-delta batch commits as one unit with the overlay rebuilt
	// once at the end: 5→3 is same-shard (both on shard 1), 3→0 is a new
	// cross edge, and the combined paths (5⇝0 via 5→3→0, 3⇝2 via 3→0→1→2,
	// 4⇝1 via 4→5→3→0→1) need both deltas plus the final rebuild.
	if _, err := reg.ApplyDelta("g", [][]byte{schemes.EdgeDelta(5, 3), schemes.EdgeDelta(3, 0)}); err != nil {
		t.Fatal(err)
	}
	if ss.Version() != 3 {
		t.Fatalf("version %d after batch of 2, want 3", ss.Version())
	}
	for _, q := range [][2]int{{5, 0}, {3, 2}, {4, 1}} {
		ok, err := ss.Answer(schemes.NodePairQuery(q[0], q[1]))
		if err != nil || !ok {
			t.Fatalf("%d⇝%d after the batch: %v, %v (want true)", q[0], q[1], ok, err)
		}
	}
}

// TestShardedSummaryMaintainedIsRebuilt: the summary holds nothing a batch
// could leave in delta order — the cross edges are an arc file, a function of
// the edge set, and the portals are derived — so after PATCH batches mixing
// cross inserts, cross deletes and same-shard edges, the committed summary and
// every member's Π are byte for byte those of a fresh Build of the final
// graph, for both schemes that take sharded deltas and both orientations.
func TestShardedSummaryMaintainedIsRebuilt(t *testing.T) {
	cases := []struct {
		name   string
		scheme *core.Scheme
		g      *graph.Graph
	}{
		{"closure", schemes.ReachabilityScheme(), graph.CommunityGraph(8, 32, 64, 7)},
		{"labels", schemes.ReachabilityLabelsScheme(), graph.CommunityGraph(8, 32, 64, 7)},
		{"closure-undirected", schemes.ReachabilityScheme(), graph.RandomConnectedUndirected(96, 40, 7)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := store.NewRegistry("")
			ss, err := RegisterSharded(reg, "g", tc.scheme, 4, tc.g.Encode())
			if err != nil {
				t.Fatal(err)
			}
			cur, n := tc.g.Clone(), tc.g.N()
			crossing := func(u, v int) bool { return ss.Asn.Shard(int64(u)) != ss.Asn.Shard(int64(v)) }
			rng := rand.New(rand.NewSource(29))
			// fresh finds an absent pair on the wanted side of the cut.
			fresh := func(cross bool) (int, int) {
				for {
					if u, v := rng.Intn(n), rng.Intn(n); u != v && !cur.HasEdge(u, v) && crossing(u, v) == cross {
						return u, v
					}
				}
			}
			// present picks an edge of cur on the wanted side of the cut.
			present := func(cross bool) (int, int) {
				var es [][2]int
				for _, e := range cur.Edges() {
					if crossing(e[0], e[1]) == cross {
						es = append(es, e)
					}
				}
				e := es[rng.Intn(len(es))]
				return e[0], e[1]
			}
			kinds := map[string]int{}
			for b := 0; b < 6; b++ {
				var batch [][]byte
				for len(batch) < 4 {
					var u, v int
					var d []byte
					switch rng.Intn(4) {
					case 0, 1: // a cross insert, most often: an append in delta order is what a rebuild would not match
						u, v = fresh(true)
						d = schemes.EdgeDelta(u, v)
						cur.MustAddEdge(u, v)
						kinds["cross insert"]++
					case 2:
						u, v = present(true)
						d = schemes.EdgeDeleteDelta(u, v)
						if err := cur.RemoveEdge(u, v); err != nil {
							t.Fatal(err)
						}
						kinds["cross delete"]++
					default:
						u, v = fresh(false)
						d = schemes.EdgeDelta(u, v)
						cur.MustAddEdge(u, v)
						kinds["same-shard insert"]++
					}
					cur.Normalize()
					batch = append(batch, d)
				}
				if _, err := reg.ApplyDelta("g", batch); err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
			}
			if len(kinds) != 3 {
				t.Fatalf("the batches hold %v; want every kind", kinds)
			}
			rebuilt, err := Build("g", tc.scheme, ForScheme(tc.scheme.Name()), RangePartitioner{}, 4, cur.Encode())
			if err != nil {
				t.Fatal(err)
			}
			gotSummary, gotShards := ss.Committed().Summary(), ss.Committed().Members()
			wantSummary, wantShards := rebuilt.Committed().Summary(), rebuilt.Committed().Members()
			if !bytes.Equal(gotSummary, wantSummary) {
				t.Errorf("maintained summary (%d B) differs from a rebuild's (%d B)", len(gotSummary), len(wantSummary))
			}
			for i := range wantShards {
				if !bytes.Equal(gotShards[i].Prep, wantShards[i].Prep) {
					t.Errorf("shard %d: maintained Π (%d B) differs from a rebuild's (%d B)", i, len(gotShards[i].Prep), len(wantShards[i].Prep))
				}
			}
		})
	}
}

// TestShardedEmptyBatchIsNoOp pins the empty-batch contract on the
// exported seam: ApplyDeltas with no deltas must leave the persisted
// checkpoint loadable.
func TestShardedEmptyBatchIsNoOp(t *testing.T) {
	dir := t.TempDir()
	reg := store.NewRegistry(dir)
	inc := schemes.PointSelectionScheme()
	ss, err := RegisterSharded(reg, "d", inc, 2,
		schemes.RelationFromKeys([]int64{2, 4, 6}))
	if err != nil {
		t.Fatal(err)
	}
	v, err := store.ApplyDeltas(context.Background(), ss, nil, store.DiskMedium(dir))
	if err != nil || v != 0 {
		t.Fatalf("empty batch: version %d, err %v (want 0, nil)", v, err)
	}
	if _, err := load(store.OSFS, dir, "d", inc); err != nil {
		t.Fatalf("empty batch broke the persisted checkpoint: %v", err)
	}
}

// TestShardedFiguresComeFromOneCommittedValue: Version, PrepBytes and
// SnapshotBytes each read one committed value, so between two loads of the
// same value they equal the exact re-encode of that value — version, summary
// and every member's snapshot — whatever a concurrent PATCH loop is staging;
// Committed hands out one version throughout; and a batch that leaves a
// member's Π alone still moves the figure, since the version is part of every
// member's encoding.
func TestShardedFiguresComeFromOneCommittedValue(t *testing.T) {
	const nv, batches = 24, 40
	reg := store.NewRegistry("")
	ss, err := RegisterSharded(reg, "g", schemes.ReachabilityScheme(), 3, graph.New(nv, true).Encode())
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot figure is the file a checkpoint of c writes, whole.
	exact := func(c *store.Committed) (prep, snap int) {
		file := &store.Manifest{SchemeName: ss.Scheme.Name(), DataSum: ss.DataSum, Layout: ss.Encode(),
			Summary: c.Summary(), Version: c.Version()}
		prep = len(c.Summary())
		for _, m := range c.Members() {
			prep += len(m.Prep)
			file.Members = append(file.Members, store.EncodeSnapshot(&store.Snapshot{SchemeName: ss.Scheme.Name(), DataSum: m.Sum, Version: c.Version(), Prep: m.Prep}))
		}
		return prep, len(store.EncodeManifest(file))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Same-shard chain edges and cross-shard edges alternate, so some
		// batches change one member and some change only the summary.
		for k := 0; k < batches; k++ {
			u, v := k%(nv-1), k%(nv-1)+1
			if k%2 == 1 {
				u, v = k%8, 8+k%16
			}
			if _, err := reg.ApplyDelta("g", [][]byte{schemes.EdgeDelta(u, v)}); err != nil {
				t.Errorf("batch %d: %v", k, err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stable := 0
			for j := 0; j < 400 || stable == 0; j++ {
				c := ss.Committed()
				v, pb, sb := ss.Version(), ss.PrepBytes(), ss.SnapshotBytes()
				cc := ss.Committed()
				cv, summary := cc.Version(), cc.Summary()
				for i := range cc.Members() {
					if snap := cc.Snapshot(ss.Scheme, i); snap.Version != cv {
						t.Errorf("Committed: member %d at version %d beside version %d", i, snap.Version, cv)
						return
					}
				}
				if ss.Committed() != c {
					continue // a commit landed between the reads
				}
				stable++
				prep, snap := exact(c)
				if v != c.Version() || cv != c.Version() || pb != prep || sb != snap || !bytes.Equal(summary, c.Summary()) {
					t.Errorf("at version %d: Version %d, Committed %d, PrepBytes %d (exact %d), SnapshotBytes %d (exact %d)",
						c.Version(), v, cv, pb, prep, sb, snap)
					return
				}
			}
		}()
	}
	wg.Wait()

	// A cross-shard edge touches no member: every Π is shared with the value
	// before, and the figure is still the new value's.
	before := ss.Committed()
	if _, err := reg.ApplyDelta("g", [][]byte{schemes.EdgeDelta(7, 20), schemes.EdgeDeleteDelta(7, 20)}); err != nil {
		t.Fatal(err)
	}
	after := ss.Committed()
	for i := range after.Members() {
		if len(after.Members()[i].Prep) > 0 && &after.Members()[i].Prep[0] != &before.Members()[i].Prep[0] {
			t.Fatalf("a summary-only batch replaced member %d's Π", i)
		}
		if after.Members()[i].Answerer != before.Members()[i].Answerer {
			t.Fatalf("a summary-only batch re-prepared member %d", i)
		}
	}
	if _, snap := exact(after); ss.SnapshotBytes() != snap || after.Version() != before.Version()+2 {
		t.Fatalf("after a summary-only batch: SnapshotBytes %d, exact %d, version %d → %d", ss.SnapshotBytes(), snap, before.Version(), after.Version())
	}
}
