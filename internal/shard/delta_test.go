package shard

// Sharded delta maintenance: the differential suite pins PATCH-maintained
// sharded datasets verdict-equivalent to a from-scratch unsharded
// preprocessing of the updated data (the same oracle the unsharded suite
// uses), across partitioners, shard counts, and a persistence
// reload → continue-patching cycle; plus the clean-refusal regression for
// sharded forms without delta routing.

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// shardDeltaCase is one sharded maintenance scenario.
type shardDeltaCase struct {
	scheme string
	inc    *core.IncrementalScheme
	data   []byte
	deltas [][]byte
	probes [][]byte
}

func shardDeltaCases(seed int64) []shardDeltaCase {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, 40)
	for i := range keys {
		keys[i] = int64(rng.Intn(300) * 2)
	}
	// Mixed kinds, with the fixed prefix covering delete-present,
	// absent-tombstone, upsert-re-insert, and delete-again on both sides
	// of the reload boundary (half = 4); the random tail keeps the
	// cross-shard routing honest (tombstones are idempotent, so random
	// delete targets are safe).
	keyDeltas := [][]byte{
		schemes.KeysDeleteDelta([]int64{keys[0], keys[1], 900_001}),
		schemes.KeysUpsertDelta([]int64{keys[0], keys[2]}),
		schemes.KeysDeleteDelta([]int64{keys[0]}),
	}
	for len(keyDeltas) < 8 {
		batch := make([]int64, 1+rng.Intn(4))
		for j := range batch {
			batch[j] = int64(rng.Intn(700))
		}
		switch rng.Intn(3) {
		case 0:
			keyDeltas = append(keyDeltas, schemes.KeysDelta(batch))
		case 1:
			keyDeltas = append(keyDeltas, schemes.KeysDeleteDelta(batch))
		default:
			keyDeltas = append(keyDeltas, schemes.KeysUpsertDelta(batch))
		}
	}
	keyProbes := make([][]byte, 0, 150)
	for c := int64(0); c < 150; c++ {
		keyProbes = append(keyProbes, schemes.PointQuery(rng.Int63n(750)))
	}
	rangeProbes := make([][]byte, 0, 60)
	for i := 0; i < 60; i++ {
		lo := rng.Int63n(700)
		rangeProbes = append(rangeProbes, schemes.RangeQuery(lo, lo+rng.Int63n(12)))
	}
	// A community graph keeps some structure per shard but guarantees
	// cross-shard edges, so deltas exercise both local closure maintenance
	// and portal-overlay rebuilds.
	g := graph.CommunityGraph(4, 8, 14, seed+5)
	// Edge deletes must target present edges, so they retract edges this
	// sequence itself inserted on pairs absent from the base graph —
	// insert, delete, re-insert via upsert, delete again, spanning the
	// reload boundary and (under range partitioning) crossing shards.
	usedPairs := map[[2]int]bool{}
	freshPair := func() (int, int) {
		for {
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u != v && !g.HasEdge(u, v) && !usedPairs[[2]int{u, v}] {
				usedPairs[[2]int{u, v}] = true
				return u, v
			}
		}
	}
	u1, v1 := freshPair()
	u2, v2 := freshPair()
	u3, v3 := freshPair()
	edgeDeltas := [][]byte{
		schemes.EdgeDelta(u1, v1),
		schemes.EdgeDelta(u2, v2),
		schemes.EdgeDeleteDelta(u1, v1),
		schemes.EdgeUpsertDelta(u1, v1), // re-insert across the reload boundary
		schemes.EdgeDeleteDelta(u2, v2),
		schemes.EdgeDeleteDelta(u1, v1),
		schemes.EdgeDelta(u3, v3),
		schemes.EdgeUpsertDelta(u3, v3), // upsert of a present edge: no-op
	}
	pairProbes := make([][]byte, 0, 256)
	for i := 0; i < 256; i++ {
		pairProbes = append(pairProbes, schemes.NodePairQuery(rng.Intn(g.N()), rng.Intn(g.N())))
	}
	return []shardDeltaCase{
		{"point-selection/sorted-keys", schemes.IncrementalPointSelection(),
			schemes.RelationFromKeys(keys), keyDeltas, keyProbes},
		{"range-selection/sorted-keys", schemes.IncrementalRangeSelection(),
			schemes.RelationFromKeys(keys), keyDeltas, rangeProbes},
		{"list-membership/sorted", schemes.IncrementalListMembership(),
			schemes.EncodeList(keys), keyDeltas, keyProbes},
		{"reachability/closure-matrix", schemes.IncrementalReachability(),
			g.Encode(), edgeDeltas, pairProbes},
		{"reachability/labels", schemes.IncrementalReachabilityLabels(),
			g.Encode(), edgeDeltas, pairProbes},
	}
}

// assertShardedEquivalent compares the maintained sharded dataset against
// a from-scratch unsharded preprocessing of the updated raw data.
func assertShardedEquivalent(t *testing.T, tc shardDeltaCase, ds store.Dataset, updated []byte, step int) {
	t.Helper()
	fresh, err := tc.inc.Scheme.Preprocess(updated)
	if err != nil {
		t.Fatalf("step %d: fresh preprocess: %v", step, err)
	}
	got, err := ds.AnswerBatch(tc.probes, 2)
	if err != nil {
		t.Fatalf("step %d: maintained batch: %v", step, err)
	}
	for pi, q := range tc.probes {
		want, err := tc.inc.Scheme.Answer(fresh, q)
		if err != nil {
			t.Fatalf("step %d probe %d: rebuilt answer: %v", step, pi, err)
		}
		if got[pi] != want {
			t.Fatalf("step %d probe %d: sharded maintained %v, unsharded rebuilt %v", step, pi, got[pi], want)
		}
	}
}

// TestShardedMaintainedVsRebuiltDifferential runs the sharded differential
// suite: every delta-capable scheme × hash/range × 2/3 shards, maintained
// through Registry.ApplyDelta, checked against the unsharded oracle after
// every delta and across a reload → continue-patching cycle.
func TestShardedMaintainedVsRebuiltDifferential(t *testing.T) {
	for _, tc := range shardDeltaCases(904) {
		for _, p := range []Partitioner{HashPartitioner{}, RangePartitioner{}} {
			for _, n := range []int{2, 3} {
				t.Run(tc.scheme+"/"+p.Name()+"/"+string(rune('0'+n)), func(t *testing.T) {
					dir := t.TempDir()
					reg := store.NewRegistry(dir)
					if _, err := RegisterSharded(reg, "d", tc.inc.Scheme, p, n, tc.data); err != nil {
						t.Fatal(err)
					}
					updated := tc.data
					var err error
					half := len(tc.deltas) / 2
					for i, delta := range tc.deltas[:half] {
						v, err2 := reg.ApplyDelta("d", [][]byte{delta})
						if err2 != nil {
							t.Fatalf("delta %d: %v", i, err2)
						}
						if v != uint64(i+1) {
							t.Fatalf("delta %d: version %d, want %d", i, v, i+1)
						}
						if updated, err = tc.inc.ApplyUpdate(updated, delta); err != nil {
							t.Fatalf("delta %d: ⊕: %v", i, err)
						}
						ds, _ := reg.GetDataset("d")
						assertShardedEquivalent(t, tc, ds, updated, i)
					}

					// Restart over the same directory: the maintained
					// checkpoint must reload (no Preprocess), with its
					// version, and keep accepting deltas.
					reg2 := store.NewRegistry(dir)
					ss, err := RegisterSharded(reg2, "d", tc.inc.Scheme, p, n, tc.data)
					if err != nil {
						t.Fatal(err)
					}
					if !ss.WasLoaded() {
						t.Fatal("restart did not reload the maintained shards")
					}
					if reg2.PreprocessCount() != 0 {
						t.Fatalf("restart ran %d Preprocess calls, want 0", reg2.PreprocessCount())
					}
					if ss.Version() != uint64(half) {
						t.Fatalf("reloaded version %d, want %d", ss.Version(), half)
					}
					assertShardedEquivalent(t, tc, ss, updated, half)
					for i, delta := range tc.deltas[half:] {
						if _, err := reg2.ApplyDelta("d", [][]byte{delta}); err != nil {
							t.Fatalf("post-reload delta %d: %v", i, err)
						}
						if updated, err = tc.inc.ApplyUpdate(updated, delta); err != nil {
							t.Fatalf("post-reload delta %d: ⊕: %v", i, err)
						}
						assertShardedEquivalent(t, tc, ss, updated, half+i)
					}
					if ss.Version() != uint64(len(tc.deltas)) {
						t.Fatalf("final version %d, want %d", ss.Version(), len(tc.deltas))
					}
				})
			}
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
	ss, err := RegisterSharded(reg, "g", scheme, RangePartitioner{}, 2, g.Encode())
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

// TestShardedDeltaUnsupportedCleanRefusal is the regression for the PATCH
// conflict path: a sharded dataset whose scheme has no sharded delta
// routing refuses with a clean error — no panic, the registry entry still
// answers, the version stays 0, and the persisted manifest is untouched.
func TestShardedDeltaUnsupportedCleanRefusal(t *testing.T) {
	dir := t.TempDir()
	reg := store.NewRegistry(dir)
	g := graph.CommunityGraph(2, 6, 8, 11)
	scheme := schemes.ReachabilityBFSScheme()
	ss, err := RegisterSharded(reg, "g", scheme, HashPartitioner{}, 2, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	manifestBefore, err := os.ReadFile(ManifestPath(dir, "g"))
	if err != nil {
		t.Fatal(err)
	}
	before, err := ss.Answer(schemes.NodePairQuery(0, 1))
	if err != nil {
		t.Fatal(err)
	}

	_, err = reg.ApplyDelta("g", [][]byte{schemes.EdgeDelta(0, 2)})
	if err == nil {
		t.Fatal("sharded BFS accepted a delta")
	}
	if want := "no sharded delta routing"; !strings.Contains(err.Error(), want) {
		t.Fatalf("refusal %q does not explain itself (want %q)", err, want)
	}
	if ss.Version() != 0 {
		t.Fatalf("refused delta bumped the version to %d", ss.Version())
	}
	after, err := ss.Answer(schemes.NodePairQuery(0, 1))
	if err != nil || after != before {
		t.Fatalf("registry entry disturbed by refused delta: %v, %v", after, err)
	}
	manifestAfter, err := os.ReadFile(ManifestPath(dir, "g"))
	if err != nil {
		t.Fatal(err)
	}
	if string(manifestBefore) != string(manifestAfter) {
		t.Fatal("refused delta rewrote the manifest")
	}
}

// TestShardedEmptyBatchIsNoOp pins the empty-batch contract on the
// exported seam: ApplyDeltas with no deltas must leave the persisted
// checkpoint loadable.
func TestShardedEmptyBatchIsNoOp(t *testing.T) {
	dir := t.TempDir()
	reg := store.NewRegistry(dir)
	inc := schemes.IncrementalPointSelection()
	ss, err := RegisterSharded(reg, "d", inc.Scheme, HashPartitioner{}, 2,
		schemes.RelationFromKeys([]int64{2, 4, 6}))
	if err != nil {
		t.Fatal(err)
	}
	v, err := store.ApplyDeltas(context.Background(), ss, inc, nil, store.DiskMedium(dir))
	if err != nil || v != 0 {
		t.Fatalf("empty batch: version %d, err %v (want 0, nil)", v, err)
	}
	if _, err := LoadShardedFS(store.OSFS, dir, "d", inc.Scheme); err != nil {
		t.Fatalf("empty batch broke the persisted checkpoint: %v", err)
	}
}

// TestShardedConcurrentDeltasAndQueries races sharded ApplyDelta against
// fan-out batch queries under the race detector: verdicts must always come
// from a fully applied version (key visible once the version says so), and
// versions must be monotonic.
func TestShardedConcurrentDeltasAndQueries(t *testing.T) {
	reg := store.NewRegistry("")
	keys := make([]int64, 48)
	for i := range keys {
		keys[i] = int64(2 * i)
	}
	ss, err := RegisterSharded(reg, "d", schemes.PointSelectionScheme(), HashPartitioner{}, 3,
		schemes.RelationFromKeys(keys))
	if err != nil {
		t.Fatal(err)
	}
	const deltas = 24
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < deltas; i++ {
			if _, err := reg.ApplyDelta("d", [][]byte{schemes.KeysDelta([]int64{int64(1001 + 2*i)})}); err != nil {
				t.Errorf("delta %d: %v", i, err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 99))
			var last uint64
			for j := 0; j < 200; j++ {
				i := rng.Intn(deltas)
				v := ss.Version()
				if v < last {
					t.Errorf("version went backwards: %d after %d", v, last)
					return
				}
				last = v
				ans, err := ss.AnswerBatch([][]byte{schemes.PointQuery(int64(1001 + 2*i))}, 2)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if v >= uint64(i+1) && !ans[0] {
					t.Errorf("version %d claims delta %d applied but its key is invisible", v, i)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if got := ss.Version(); got != deltas {
		t.Fatalf("final version %d, want %d", got, deltas)
	}
}

// TestShardedConcurrentMixedDeltasAndQueries is the sharded twin of the
// store-level mixed race: batch i atomically inserts key 1001+2i and
// tombstones original key 2i, and any fan-out query observing version
// ≥ 2(i+1) must see the insert and must NOT see the deleted key — a
// tombstone lost in the shard routing or a torn generation swap would
// resurrect it.
func TestShardedConcurrentMixedDeltasAndQueries(t *testing.T) {
	reg := store.NewRegistry("")
	keys := make([]int64, 48)
	for i := range keys {
		keys[i] = int64(2 * i)
	}
	ss, err := RegisterSharded(reg, "d", schemes.PointSelectionScheme(), RangePartitioner{}, 3,
		schemes.RelationFromKeys(keys))
	if err != nil {
		t.Fatal(err)
	}
	const deltas = 24
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
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 77))
			var last uint64
			for j := 0; j < 200; j++ {
				i := rng.Intn(deltas)
				v := ss.Version()
				if v < last {
					t.Errorf("version went backwards: %d after %d", v, last)
					return
				}
				last = v
				if v < uint64(2*(i+1)) {
					continue // batch i not committed yet
				}
				ans, err := ss.AnswerBatch([][]byte{
					schemes.PointQuery(int64(1001 + 2*i)),
					schemes.PointQuery(int64(2 * i)),
				}, 2)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if !ans[0] {
					t.Errorf("version %d claims batch %d applied but its inserted key is invisible", v, i)
					return
				}
				if ans[1] {
					t.Errorf("version %d claims batch %d applied but its deleted key %d reappeared", v, i, 2*i)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if got := ss.Version(); got != 2*deltas {
		t.Fatalf("final version %d, want %d", got, 2*deltas)
	}
	for i := 0; i < deltas; i++ {
		ans, err := ss.AnswerBatch([][]byte{
			schemes.PointQuery(int64(2 * i)),
			schemes.PointQuery(int64(1001 + 2*i)),
		}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if ans[0] {
			t.Fatalf("deleted key %d reappeared after the race", 2*i)
		}
		if !ans[1] {
			t.Fatalf("inserted key %d lost after the race", 1001+2*i)
		}
	}
}

// TestShardedConcurrentMixedReachDeltasAndQueries is the same race on the
// one sharded form that carries a summary: mixed edge batches against
// reachability queries. Batch k inserts the chain edge k→k+1, upserts the
// back edge k+1→0 and deletes batch k-1's back edge k→0 — creating and
// retiring portals as it goes — so at the version batch j committed,
// 0 ⇝ k+1 and k+1 ⇝ 0 hold exactly for k ≤ j. A query bracketed by two
// equal version reads must match that exactly, and at every instant the
// served view must be the one derived from the served summary: a reader
// pairing a new summary with old rows (or the reverse) sees them disagree.
func TestShardedConcurrentMixedReachDeltasAndQueries(t *testing.T) {
	const nv, batches = 20, 18
	reg := store.NewRegistry("")
	ss, err := RegisterSharded(reg, "g", schemes.ReachabilityScheme(), HashPartitioner{}, 3, graph.New(nv, true).Encode())
	if err != nil {
		t.Fatal(err)
	}
	committed := func(j int) uint64 { return uint64(2 + 3*j) } // version after batch j
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < batches; k++ {
			batch := [][]byte{schemes.EdgeDelta(k, k+1), schemes.EdgeUpsertDelta(k+1, 0)}
			if k > 0 {
				batch = append(batch, schemes.EdgeDeleteDelta(k, 0))
			}
			if v, err := reg.ApplyDelta("g", batch); err != nil || v != committed(k) {
				t.Errorf("batch %d: version %d, %v (want %d)", k, v, err, committed(k))
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 5))
			for j := 0; j < 300; j++ {
				k := rng.Intn(batches)
				before := ss.Version()
				ans, err := ss.AnswerBatch([][]byte{schemes.NodePairQuery(0, k+1), schemes.NodePairQuery(k+1, 0)}, 2)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if before >= committed(k) && !ans[0] {
					t.Errorf("version %d has batch %d applied but 0 does not reach %d", before, k, k+1)
					return
				}
				if before == ss.Version() {
					want := before >= committed(k) // k ≤ j for the batch j at this version
					if ans[0] != want || ans[1] != want {
						t.Errorf("at version %d: 0⇝%d = %v, %d⇝0 = %v, want both %v", before, k+1, ans[0], k+1, ans[1], want)
						return
					}
				}
				c := ss.state.Load()
				if !bytes.Equal(encodeReachSummary(c.view.(*reachSummary)), c.summary) {
					t.Error("the served rows were not derived from the served summary")
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if got := ss.Version(); got != committed(batches-1) {
		t.Fatalf("final version %d, want %d", got, committed(batches-1))
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
	ss, err := RegisterSharded(reg, "g", schemes.ReachabilityScheme(), RangePartitioner{}, 3, graph.New(nv, true).Encode())
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot figure is the file a checkpoint of c writes, whole.
	exact := func(c *committed) (prep, snap int) {
		file := &Manifest{SchemeName: ss.Scheme.Name(), DataSum: ss.DataSum, Partitioner: ss.Partitioner,
			Assignment: ss.Asn.Encode(), Summary: c.summary, Version: c.version}
		prep = len(c.summary)
		for _, m := range c.shards {
			prep += len(m.prep)
			file.Shards = append(file.Shards, store.EncodeSnapshot(store.NewSnapshot(ss.Scheme, m.sum, c.version, m.prep)))
		}
		return prep, len(EncodeManifest(file))
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
			if _, err := reg.ApplyDelta("g", [][]byte{schemes.EdgeUpsertDelta(u, v)}); err != nil {
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
				c := ss.state.Load()
				v, pb, sb := ss.Version(), ss.PrepBytes(), ss.SnapshotBytes()
				cv, summary, members := ss.Committed()
				for i, snap := range members {
					if snap.Version != cv {
						t.Errorf("Committed: member %d at version %d beside version %d", i, snap.Version, cv)
						return
					}
				}
				if ss.state.Load() != c {
					continue // a commit landed between the reads
				}
				stable++
				prep, snap := exact(c)
				if v != c.version || cv != c.version || pb != prep || sb != snap || !bytes.Equal(summary, c.summary) {
					t.Errorf("at version %d: Version %d, Committed %d, PrepBytes %d (exact %d), SnapshotBytes %d (exact %d)",
						c.version, v, cv, pb, prep, sb, snap)
					return
				}
			}
		}()
	}
	wg.Wait()

	// A cross-shard edge touches no member: every Π is shared with the value
	// before, and the figure is still the new value's.
	before := ss.state.Load()
	if _, err := reg.ApplyDelta("g", [][]byte{schemes.EdgeDelta(7, 20), schemes.EdgeDeleteDelta(7, 20)}); err != nil {
		t.Fatal(err)
	}
	after := ss.state.Load()
	for i := range after.shards {
		if len(after.shards[i].prep) > 0 && &after.shards[i].prep[0] != &before.shards[i].prep[0] {
			t.Fatalf("a summary-only batch replaced member %d's Π", i)
		}
		if after.shards[i].Answerer != before.shards[i].Answerer {
			t.Fatalf("a summary-only batch re-prepared member %d", i)
		}
	}
	if _, snap := exact(after); ss.SnapshotBytes() != snap || after.version != before.version+2 {
		t.Fatalf("after a summary-only batch: SnapshotBytes %d, exact %d, version %d → %d", ss.SnapshotBytes(), snap, before.version, after.version)
	}
}
