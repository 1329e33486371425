package shard

// Succinct-vs-dense differential: the 2-hop labeling scheme must be
// observably indistinguishable from the dense closure-matrix scheme —
// verdict for verdict AND error string for error string — unsharded and
// under both partitioners × n ∈ {2, 4}, across a save → reload → PATCH
// cycle with mixed edge inserts and deletes. The dense scheme is the
// oracle; any divergence is a labels bug.

import (
	"math/rand"
	"testing"

	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// succinctFixture builds the shared workload: a community graph, a probe
// mix (in-range, out-of-range, malformed), and a mixed insert/delete delta
// sequence whose deletes target edges the sequence itself inserted.
func succinctFixture(seed int64) (g *graph.Graph, probes [][]byte, deltas [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	g = graph.CommunityGraph(4, 9, 14, seed)
	for i := 0; i < 220; i++ {
		probes = append(probes, schemes.NodePairQuery(rng.Intn(g.N()), rng.Intn(g.N())))
	}
	probes = append(probes,
		schemes.NodePairQuery(g.N(), 0),
		schemes.NodePairQuery(0, g.N()+9),
		schemes.NodePairQuery(-1, 1),
		[]byte{5},
		nil,
	)
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
	deltas = [][]byte{
		schemes.EdgeDelta(u1, v1),
		schemes.EdgeDelta(u2, v2),
		schemes.EdgeDeleteDelta(u1, v1),
		schemes.EdgeDelta(u1, v1), // re-insert across the reload boundary
		schemes.EdgeDeleteDelta(u2, v2),
		schemes.EdgeDeleteDelta(u1, v1),
	}
	return g, probes, deltas
}

// assertSuccinctEqualsDense probes both datasets and requires identical
// verdicts and identical error strings.
func assertSuccinctEqualsDense(t *testing.T, dense, labels store.Dataset, probes [][]byte, step string) {
	t.Helper()
	for i, q := range probes {
		dGot, dErr := dense.Answer(q)
		lGot, lErr := labels.Answer(q)
		if (dErr == nil) != (lErr == nil) {
			t.Fatalf("%s probe %d: dense err %v, labels err %v", step, i, dErr, lErr)
		}
		if dErr != nil {
			if dErr.Error() != lErr.Error() {
				t.Fatalf("%s probe %d: error strings diverge:\n dense:  %v\n labels: %v", step, i, dErr, lErr)
			}
			continue
		}
		if dGot != lGot {
			t.Fatalf("%s probe %d: dense %v, labels %v", step, i, dGot, lGot)
		}
	}
}

// TestSuccinctVsDenseUnsharded runs the differential on plain stores
// through a registry: initial build, snapshot reload, then a mixed
// insert/delete PATCH run, checking after every delta — and holds the
// labels scheme to its reason for existing, a snapshot at most half the
// dense one's.
func TestSuccinctVsDenseUnsharded(t *testing.T) {
	g, probes, deltas := succinctFixture(31)
	dir := t.TempDir()
	reg := store.NewRegistry(dir)
	if _, err := reg.Register("dense", schemes.ReachabilityScheme(), g.Encode()); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("labels", schemes.ReachabilityLabelsScheme(), g.Encode()); err != nil {
		t.Fatal(err)
	}
	dense, _ := reg.GetDataset("dense")
	labels, _ := reg.GetDataset("labels")
	assertSuccinctEqualsDense(t, dense, labels, probes, "initial")

	// Restart over the same directory: both must reload from snapshots.
	reg2 := store.NewRegistry(dir)
	if _, err := reg2.Register("dense", schemes.ReachabilityScheme(), g.Encode()); err != nil {
		t.Fatal(err)
	}
	ls, err := reg2.Register("labels", schemes.ReachabilityLabelsScheme(), g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !ls.WasLoaded() || reg2.PreprocessCount() != 0 {
		t.Fatalf("restart did not reload: loaded=%v preprocess=%d", ls.WasLoaded(), reg2.PreprocessCount())
	}
	dense, _ = reg2.GetDataset("dense")
	labels, _ = reg2.GetDataset("labels")
	assertSuccinctEqualsDense(t, dense, labels, probes, "reloaded")

	// Mixed insert/delete PATCH run on both datasets in lockstep.
	for i, delta := range deltas {
		if _, err := reg2.ApplyDelta("dense", [][]byte{delta}); err != nil {
			t.Fatalf("dense delta %d: %v", i, err)
		}
		if _, err := reg2.ApplyDelta("labels", [][]byte{delta}); err != nil {
			t.Fatalf("labels delta %d: %v", i, err)
		}
		assertSuccinctEqualsDense(t, dense, labels, probes, "patched")
	}

	// The size bar, on what reaches disk rather than on Π alone: on the
	// community shape the labels were built for (blocks with a sparse
	// cross-cut) the labels dataset's snapshot is no larger than the closure
	// one's — and, now that the closure is stored over its condensation, the
	// closure's is within a quarter of it, where the n²-bit layout was a
	// multiple (both are mostly the graph appendix). The 36-vertex
	// differential fixture above is too small for Π to dominate its snapshot,
	// so the bar gets a graph of its own.
	big := graph.CommunityGraph(8, 32, 64, 256).Encode()
	bigDense, err := reg2.Register("dense-256", schemes.ReachabilityScheme(), big)
	if err != nil {
		t.Fatal(err)
	}
	bigLabels, err := reg2.Register("labels-256", schemes.ReachabilityLabelsScheme(), big)
	if err != nil {
		t.Fatal(err)
	}
	if d, l := bigDense.SnapshotBytes(), bigLabels.SnapshotBytes(); l <= 0 || l > d || 4*d > 5*l {
		t.Fatalf("labels snapshot %d bytes, closure %d — want labels ≤ closure ≤ 1.25 × labels", l, d)
	}
}

// TestSuccinctVsDenseSharded runs the same differential over sharded
// datasets: hash/range × n ∈ {2, 4}, reload via a fresh registry, then the
// PATCH run — the labels scheme rides the same scheme-agnostic sharded
// form (local probes + portal overlay) as the dense one, so the two must
// stay observably identical shard-for-shard too.
func TestSuccinctVsDenseSharded(t *testing.T) {
	g, probes, deltas := succinctFixture(47)
	for _, p := range []Partitioner{HashPartitioner{}, RangePartitioner{}} {
		for _, n := range []int{2, 4} {
			t.Run(p.Name()+"/n="+string(rune('0'+n)), func(t *testing.T) {
				dir := t.TempDir()
				reg := store.NewRegistry(dir)
				if _, err := RegisterSharded(reg, "dense", schemes.ReachabilityScheme(), p, n, g.Encode()); err != nil {
					t.Fatal(err)
				}
				if _, err := RegisterSharded(reg, "labels", schemes.ReachabilityLabelsScheme(), p, n, g.Encode()); err != nil {
					t.Fatal(err)
				}
				dense, _ := reg.GetDataset("dense")
				labels, _ := reg.GetDataset("labels")
				assertSuccinctEqualsDense(t, dense, labels, probes, "initial")

				reg2 := store.NewRegistry(dir)
				if _, err := RegisterSharded(reg2, "dense", schemes.ReachabilityScheme(), p, n, g.Encode()); err != nil {
					t.Fatal(err)
				}
				ls, err := RegisterSharded(reg2, "labels", schemes.ReachabilityLabelsScheme(), p, n, g.Encode())
				if err != nil {
					t.Fatal(err)
				}
				if !ls.WasLoaded() || reg2.PreprocessCount() != 0 {
					t.Fatalf("restart did not reload: loaded=%v preprocess=%d", ls.WasLoaded(), reg2.PreprocessCount())
				}
				dense, _ = reg2.GetDataset("dense")
				labels, _ = reg2.GetDataset("labels")
				assertSuccinctEqualsDense(t, dense, labels, probes, "reloaded")

				for i, delta := range deltas {
					if _, err := reg2.ApplyDelta("dense", [][]byte{delta}); err != nil {
						t.Fatalf("dense delta %d: %v", i, err)
					}
					if _, err := reg2.ApplyDelta("labels", [][]byte{delta}); err != nil {
						t.Fatalf("labels delta %d: %v", i, err)
					}
					assertSuccinctEqualsDense(t, dense, labels, probes, "patched")
				}
			})
		}
	}
}
