package store

// The maintained-vs-rebuilt differential suite: for every scheme with an
// incremental form, Registry.ApplyDelta-maintained Π must be equivalent to
// Preprocess(ApplyUpdate(D, ∆D)) — byte-equal, and verdict-equal on every
// probe — after every delta of random
// sequences, including across a snapshot save → reload → continue-patching
// cycle. Plus the mutation-path contracts: atomic failure, clean errors
// for unmaintainable schemes, and torn-free concurrent PATCH vs query.

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"sync"
	"testing"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
)

// deltaCase is one scheme's differential scenario.
type deltaCase struct {
	scheme string
	inc    *core.Scheme
	data   []byte
	deltas [][]byte
	probes [][]byte
}

// deltaCases builds the differential scenarios from one seed.
func deltaCases(seed int64) []deltaCase {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, 48)
	for i := range keys {
		keys[i] = int64(rng.Intn(200) * 2)
	}
	keyDeltas := func() [][]byte {
		// The fixed prefix spans the full dynamism story — delete present
		// keys alongside an absent tombstone, re-insert one, delete it
		// again — and the random tail mixes both kinds
		// (tombstones are idempotent, so random delete targets are safe).
		// Eight deltas put delete/re-insert on both sides of the
		// save→reload boundary (half = 4).
		ds := [][]byte{
			schemes.KeysDeleteDelta([]int64{keys[0], keys[1], 900_001}),
			schemes.KeysDelta([]int64{keys[0], keys[2]}),
			schemes.KeysDeleteDelta([]int64{keys[0]}),
		}
		for len(ds) < 8 {
			batch := make([]int64, 1+rng.Intn(4))
			for j := range batch {
				batch[j] = int64(rng.Intn(500)) // mix of fresh, duplicate, odd, even
			}
			if rng.Intn(3) == 1 {
				ds = append(ds, schemes.KeysDeleteDelta(batch))
			} else {
				ds = append(ds, schemes.KeysDelta(batch))
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
	rangeProbes := func() [][]byte {
		ps := make([][]byte, 0, 60)
		for i := 0; i < 60; i++ {
			lo := rng.Int63n(500)
			ps = append(ps, schemes.RangeQuery(lo, lo+rng.Int63n(8)))
		}
		return ps
	}
	g := graph.CommunityGraph(4, 10, 16, seed)
	// Edge retraction of an absent edge is an error (unlike key
	// tombstones), so deletes target edges this sequence itself inserted,
	// on pairs absent from the base graph — insert, delete, re-insert,
	// delete again, with the save→reload boundary (half = 4) in
	// the middle of the churn.
	freshPair := func(used map[[2]int]bool) (int, int) {
		for {
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u != v && !g.HasEdge(u, v) && !used[[2]int{u, v}] {
				used[[2]int{u, v}] = true
				return u, v
			}
		}
	}
	used := map[[2]int]bool{}
	u1, v1 := freshPair(used)
	u2, v2 := freshPair(used)
	u3, v3 := freshPair(used)
	edgeDeltas := [][]byte{
		schemes.EdgeDelta(u1, v1),
		schemes.EdgeDelta(u2, v2),
		schemes.EdgeDeleteDelta(u1, v1),
		schemes.EdgeDelta(u1, v1), // re-insert across the reload boundary
		schemes.EdgeDeleteDelta(u2, v2),
		schemes.EdgeDeleteDelta(u1, v1), // delete the re-inserted edge again
		schemes.EdgeDelta(u3, v3),
		schemes.EdgeDelta(u3, v3), // insert of a present edge: no-op
	}
	pairProbes := make([][]byte, 0, 200)
	for i := 0; i < 200; i++ {
		pairProbes = append(pairProbes, schemes.NodePairQuery(rng.Intn(g.N()), rng.Intn(g.N())))
	}
	return []deltaCase{
		{
			scheme: "point-selection/sorted-keys", inc: schemes.PointSelectionScheme(),
			data: schemes.RelationFromKeys(keys), deltas: keyDeltas(), probes: keyProbes(),
		},
		{
			// The sorted-key scheme's RangeQuery.
			scheme: "range-selection/sorted-keys", inc: schemes.PointSelectionScheme(),
			data: schemes.RelationFromKeys(keys), deltas: keyDeltas(), probes: rangeProbes(),
		},
		{
			scheme: "list-membership/sorted", inc: schemes.ListMembershipScheme(),
			data: schemes.EncodeList(keys), deltas: keyDeltas(), probes: keyProbes(),
		},
		{
			scheme: "reachability/closure-matrix", inc: schemes.ReachabilityScheme(),
			data: g.Encode(), deltas: edgeDeltas, probes: pairProbes,
		},
		{
			scheme: "reachability/bfs-per-query", inc: schemes.ReachabilityBFSScheme(),
			data: g.Encode(), deltas: edgeDeltas, probes: pairProbes,
		},
		{
			scheme: "reachability/labels", inc: schemes.ReachabilityLabelsScheme(),
			data: g.Encode(), deltas: edgeDeltas, probes: pairProbes,
		},
		undirectedReachCase(seed),
	}
}

// undirectedReachCase pins the orientation-flag path: ⊕ on an undirected
// graph inserts a symmetric edge, so the maintained closure must OR both
// arcs — a directed-only maintenance diverges on the reverse direction.
func undirectedReachCase(seed int64) deltaCase {
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
	deltas := [][]byte{
		schemes.EdgeDelta(a, b),
		schemes.EdgeDelta(o1u, o1v),
		schemes.EdgeDeleteDelta(b, a), // reversed orientation: undirected delete
		schemes.EdgeDelta(a, b),       // re-bridge the components
		schemes.EdgeDeleteDelta(a, b),
		schemes.EdgeDelta(o2u, o2v),
	}
	probes := make([][]byte, 0, 200)
	for i := 0; i < 200; i++ {
		probes = append(probes, schemes.NodePairQuery(rng.Intn(24), rng.Intn(24)))
	}
	return deltaCase{
		scheme: "reachability/closure-matrix (undirected)", inc: schemes.ReachabilityScheme(),
		data: g.Encode(), deltas: deltas, probes: probes,
	}
}

// assertEquivalent checks the maintained store against a from-scratch
// preprocessing of the updated raw data.
func assertEquivalent(t *testing.T, tc deltaCase, st *Store, updated []byte, step int) {
	t.Helper()
	fresh, err := tc.inc.Preprocess(updated)
	if err != nil {
		t.Fatalf("step %d: fresh preprocess: %v", step, err)
	}
	maintained, _ := st.View()
	if !bytes.Equal(maintained, fresh) {
		t.Fatalf("step %d: maintained Π diverges from rebuilt Π (%d vs %d bytes)",
			step, len(maintained), len(fresh))
	}
	for pi, q := range tc.probes {
		got, err := st.Answer(q)
		if err != nil {
			t.Fatalf("step %d probe %d: maintained answer: %v", step, pi, err)
		}
		want, err := tc.inc.Answer(fresh, q)
		if err != nil {
			t.Fatalf("step %d probe %d: rebuilt answer: %v", step, pi, err)
		}
		if got != want {
			t.Fatalf("step %d probe %d: maintained %v, rebuilt %v", step, pi, got, want)
		}
	}
}

// TestMaintainedVsRebuiltDifferential pins ApplyDelta-maintained Π
// equivalent to Preprocess(ApplyUpdate(D, ∆D)) after every delta, across a
// snapshot save → reload → continue-patching cycle.
func TestMaintainedVsRebuiltDifferential(t *testing.T) {
	for _, tc := range deltaCases(1207) {
		t.Run(tc.scheme, func(t *testing.T) {
			dir := t.TempDir()
			reg := NewRegistry(dir)
			if _, err := reg.Register("d", tc.inc, tc.data); err != nil {
				t.Fatal(err)
			}
			updated := tc.data
			half := len(tc.deltas) / 2
			for i, delta := range tc.deltas[:half] {
				v, err := reg.ApplyDelta("d", [][]byte{delta})
				if err != nil {
					t.Fatalf("delta %d: %v", i, err)
				}
				if v != uint64(i+1) {
					t.Fatalf("delta %d: version %d, want %d", i, v, i+1)
				}
				if updated, err = tc.inc.ApplyUpdate(updated, delta); err != nil {
					t.Fatalf("delta %d: ⊕: %v", i, err)
				}
				st, _ := reg.Get("d")
				assertEquivalent(t, tc, st, updated, i)
			}

			// Restart: a new registry over the same directory must reload
			// the MAINTAINED snapshot (same original data digest, version
			// half), not re-preprocess the stale registration data.
			reg2 := NewRegistry(dir)
			st2, err := reg2.Register("d", tc.inc, tc.data)
			if err != nil {
				t.Fatal(err)
			}
			if !st2.WasLoaded() {
				t.Fatal("restart did not reload the snapshot")
			}
			if reg2.PreprocessCount() != 0 {
				t.Fatalf("restart ran %d Preprocess calls, want 0", reg2.PreprocessCount())
			}
			if got := st2.Version(); got != uint64(half) {
				t.Fatalf("reloaded version %d, want %d", got, half)
			}
			assertEquivalent(t, tc, st2, updated, half)

			// Continue patching the reloaded store.
			for i, delta := range tc.deltas[half:] {
				v, err := reg2.ApplyDelta("d", [][]byte{delta})
				if err != nil {
					t.Fatalf("post-reload delta %d: %v", i, err)
				}
				if v != uint64(half+i+1) {
					t.Fatalf("post-reload delta %d: version %d, want %d", i, v, half+i+1)
				}
				if updated, err = tc.inc.ApplyUpdate(updated, delta); err != nil {
					t.Fatalf("post-reload delta %d: ⊕: %v", i, err)
				}
				assertEquivalent(t, tc, st2, updated, half+i)
			}
		})
	}
}

// TestApplyDeltaBatchIsAtomic pins the all-or-nothing contract: a batch
// whose last delta is hostile must leave the served Π, the version, and
// the on-disk snapshot untouched.
func TestApplyDeltaBatchIsAtomic(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(dir)
	data := schemes.RelationFromKeys([]int64{2, 4, 6})
	st, err := reg.Register("d", schemes.PointSelectionScheme(), data)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := st.View()
	snapBefore, err := os.ReadFile(DatasetPath(dir, "d"))
	if err != nil {
		t.Fatal(err)
	}

	_, err = reg.ApplyDelta("d", [][]byte{schemes.KeysDelta([]int64{9}), []byte{0xff, 0xff}})
	if err == nil {
		t.Fatal("hostile batch applied without error")
	}
	after, v := st.View()
	if v != 0 {
		t.Fatalf("version %d after failed batch, want 0", v)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed batch mutated the served Π")
	}
	if ok, _ := st.Answer(schemes.PointQuery(9)); ok {
		t.Fatal("partially applied delta is visible")
	}
	snapAfter, err := os.ReadFile(DatasetPath(dir, "d"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapBefore, snapAfter) {
		t.Fatal("failed batch rewrote the snapshot")
	}
	if reg.DeltaCount() != 0 {
		t.Fatalf("delta counter %d after failed batch, want 0", reg.DeltaCount())
	}
}

// TestApplyDeltaErrors pins the clean-refusal paths: unknown ids are
// NotFoundError, schemes without incremental forms and empty batches are
// plain conflicts, and none of them disturb the registry entry.
func TestApplyDeltaErrors(t *testing.T) {
	reg := NewRegistry("")
	if _, err := reg.ApplyDelta("ghost", [][]byte{{1}}); err == nil {
		t.Fatal("unknown dataset accepted")
	} else {
		var nf *NotFoundError
		if !errors.As(err, &nf) {
			t.Fatalf("unknown dataset error %v is not a NotFoundError", err)
		}
	}

	data := schemes.RelationFromKeys([]int64{2, 4})
	if _, err := reg.Register("scan", schemes.PointSelectionScanScheme(), data); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.ApplyDelta("scan", [][]byte{schemes.KeysDelta([]int64{8})}); err == nil {
		t.Fatal("scheme without incremental form accepted a delta")
	}
	if _, err := reg.Register("pt", schemes.PointSelectionScheme(), data); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.ApplyDelta("pt", nil); err == nil {
		t.Fatal("empty delta batch accepted")
	}
	st, _ := reg.Get("pt")
	if st.Version() != 0 {
		t.Fatalf("refused deltas bumped the version to %d", st.Version())
	}
	if ok, _ := st.Answer(schemes.PointQuery(2)); !ok {
		t.Fatal("registry entry disturbed by refused deltas")
	}
}

// TestConcurrentDeltasAndQueries races ApplyDelta writers against Answer
// readers under the race detector: every query must observe a fully
// applied version — if the version read before a query says delta i has
// committed, the inserted key must be visible — and reported versions must
// be monotonic.
func TestConcurrentDeltasAndQueries(t *testing.T) {
	reg := NewRegistry("") // memory-only: the race is in the swap, not the file
	keys := make([]int64, 64)
	for i := range keys {
		keys[i] = int64(2 * i)
	}
	st, err := reg.Register("d", schemes.PointSelectionScheme(), schemes.RelationFromKeys(keys))
	if err != nil {
		t.Fatal(err)
	}
	const deltas = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < deltas; i++ {
			// Delta i inserts key 1001+2i and commits version i+1.
			if _, err := reg.ApplyDelta("d", [][]byte{schemes.KeysDelta([]int64{int64(1001 + 2*i)})}); err != nil {
				t.Errorf("delta %d: %v", i, err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			var lastVersion uint64
			for j := 0; j < 400; j++ {
				i := rng.Intn(deltas)
				v := st.Version()
				if v < lastVersion {
					t.Errorf("version went backwards: %d after %d", v, lastVersion)
					return
				}
				lastVersion = v
				ok, err := st.Answer(schemes.PointQuery(int64(1001 + 2*i)))
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if v >= uint64(i+1) && !ok {
					t.Errorf("version %d claims delta %d applied but its key is invisible", v, i)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if got := st.Version(); got != deltas {
		t.Fatalf("final version %d, want %d", got, deltas)
	}
}

// TestConcurrentMixedDeltasAndQueries races a writer of mixed
// insert+delete batches against readers under the race detector. Batch i
// atomically inserts key 1001+2i and deletes original key 2i, so any query
// that observes version ≥ i+1 must see the inserted key AND must NOT see
// the deleted one — a deleted key reappearing (a torn merge, a lost
// tombstone) is the invariant this test exists to catch.
func TestConcurrentMixedDeltasAndQueries(t *testing.T) {
	reg := NewRegistry("") // memory-only: the race is in the swap, not the file
	keys := make([]int64, 64)
	for i := range keys {
		keys[i] = int64(2 * i)
	}
	st, err := reg.Register("d", schemes.PointSelectionScheme(), schemes.RelationFromKeys(keys))
	if err != nil {
		t.Fatal(err)
	}
	const deltas = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < deltas; i++ {
			batch := [][]byte{
				schemes.KeysDelta([]int64{int64(1001 + 2*i)}),
				schemes.KeysDeleteDelta([]int64{int64(2 * i)}),
			}
			if _, err := reg.ApplyDelta("d", batch); err != nil {
				t.Errorf("batch %d: %v", i, err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			var lastVersion uint64
			for j := 0; j < 400; j++ {
				i := rng.Intn(deltas)
				v := st.Version()
				if v < lastVersion {
					t.Errorf("version went backwards: %d after %d", v, lastVersion)
					return
				}
				lastVersion = v
				// Versions count deltas and each batch holds two, so batch
				// i is committed once the version reaches 2(i+1).
				if v < uint64(2*(i+1)) {
					continue // batch i not committed yet; nothing to assert
				}
				ok, err := st.Answer(schemes.PointQuery(int64(1001 + 2*i)))
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if !ok {
					t.Errorf("version %d claims batch %d applied but its inserted key is invisible", v, i)
					return
				}
				gone, err := st.Answer(schemes.PointQuery(int64(2 * i)))
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if gone {
					t.Errorf("version %d claims batch %d applied but its deleted key 2*%d reappeared", v, i, i)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if got := st.Version(); got != 2*deltas {
		t.Fatalf("final version %d, want %d", got, 2*deltas)
	}
	// Post-race sweep: every tombstone stuck, every insert stuck.
	for i := 0; i < deltas; i++ {
		if ok, _ := st.Answer(schemes.PointQuery(int64(2 * i))); ok {
			t.Fatalf("deleted key %d reappeared after the race", 2*i)
		}
		if ok, _ := st.Answer(schemes.PointQuery(int64(1001 + 2*i))); !ok {
			t.Fatalf("inserted key %d lost after the race", 1001+2*i)
		}
	}
}

// TestSnapshotVersionRoundTrip pins that the maintenance version survives
// encode/decode. (The pre-delta v1 layout is an unknown format now; see
// TestSnapshotLegacyVersionsAreUnknownFormats.)
func TestSnapshotVersionRoundTrip(t *testing.T) {
	s := &Snapshot{SchemeName: "s", DataSum: SumData([]byte("d")), Version: 7, Prep: []byte{1, 2, 3}}
	got, err := DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 7 || got.SchemeName != "s" || !bytes.Equal(got.Prep, s.Prep) || got.DataSum != s.DataSum {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}
