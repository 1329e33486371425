package shard

// The sharded crash matrix: the same kill-the-medium-at-every-operation
// discipline as internal/store's crash suite, over the sharded persistence
// protocol — the whole dataset committed by one atomic manifest rename,
// one write-ahead delta log per dataset logging the ORIGINAL
// (pre-split) deltas, checkpoints on the medium's cadence, replay at
// registration. Every scheme × hash/range partitioning is killed at the
// five named protocol boundaries and across a full op-index sweep, and the
// recovered dataset must sit at exactly the last acknowledged version,
// verdict-identical to an unsharded from-scratch rebuild of the data at
// that version.

import (
	"path/filepath"
	"strings"
	"testing"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
	"pitract/internal/store/faultfs"
)

const (
	shardCrashDir = "/data"
	shardCrashID  = "d"
	shardCrashN   = 2
)

// shardCrashScheme is one scheme's sharded crash scenario.
type shardCrashScheme struct {
	name    string
	inc     *core.Scheme
	data    []byte
	batches [][][]byte
	probes  [][]byte
}

// shardCrashSchemes mirrors the unsharded crash scenarios: mixed-kind
// batches (insert, delete, re-insert, idempotent tombstone) over the four
// delta-capable schemes. The reachability graph bridges, cuts, and
// re-bridges two chains, so under range partitioning the deltas hit both
// local closures and the cross-edge/portal summary.
func shardCrashSchemes() []shardCrashScheme {
	keyData := schemes.RelationFromKeys([]int64{2, 4, 6, 8, 10, 400, 402, 404})
	keyBatches := func() [][][]byte {
		return [][][]byte{
			{schemes.KeysDelta([]int64{101, 401})},
			{schemes.KeysDeleteDelta([]int64{4, 401, 404})},
			{schemes.KeysDelta([]int64{4, 500}), schemes.KeysDelta([]int64{7})},
			{schemes.KeysDeleteDelta([]int64{999})}, // absent: idempotent tombstone
		}
	}
	keyProbes := make([][]byte, 0, 16)
	for _, k := range []int64{2, 4, 6, 7, 8, 10, 101, 400, 401, 402, 404, 500, 999, 5} {
		keyProbes = append(keyProbes, schemes.PointQuery(k))
	}
	rangeProbes := make([][]byte, 0, 16)
	for _, r := range [][2]int64{{0, 3}, {3, 5}, {5, 7}, {99, 102}, {399, 405}, {499, 501}, {900, 1000}, {11, 399}} {
		rangeProbes = append(rangeProbes, schemes.RangeQuery(r[0], r[1]))
	}

	g := graph.New(8, true)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}} {
		g.MustAddEdge(e[0], e[1])
	}
	edgeBatches := [][][]byte{
		{schemes.EdgeDelta(3, 4)},                                // bridge (cross under range partitioning)
		{schemes.EdgeDeleteDelta(1, 2)},                          // cut a local chain
		{schemes.EdgeDelta(1, 2), schemes.EdgeDeleteDelta(3, 4)}, // restore, un-bridge
		{schemes.EdgeDelta(0, 1)},                                // present: no-op insert
	}
	pairProbes := make([][]byte, 0, 64)
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			pairProbes = append(pairProbes, schemes.NodePairQuery(u, v))
		}
	}

	return []shardCrashScheme{
		{"point-selection/sorted-keys", schemes.PointSelectionScheme(), keyData, keyBatches(), keyProbes},
		{"range-selection/sorted-keys", schemes.PointSelectionScheme(), keyData, keyBatches(), rangeProbes}, // its RangeQuery
		{"list-membership/sorted", schemes.ListMembershipScheme(),
			schemes.EncodeList([]int64{2, 4, 6, 8, 10, 400, 402, 404}), keyBatches(), keyProbes},
		{"reachability/closure-matrix", schemes.ReachabilityScheme(), g.Encode(), edgeBatches, pairProbes},
	}
}

// shardFlatDeltas flattens a scenario's batches into version order.
func shardFlatDeltas(cs shardCrashScheme) [][]byte {
	var out [][]byte
	for _, b := range cs.batches {
		out = append(out, b...)
	}
	return out
}

// shardOracleStates returns the raw dataset at every version boundary.
func shardOracleStates(t *testing.T, cs shardCrashScheme) [][]byte {
	t.Helper()
	states := [][]byte{cs.data}
	cur := cs.data
	for i, d := range shardFlatDeltas(cs) {
		next, err := cs.inc.ApplyUpdate(cur, d)
		if err != nil {
			t.Fatalf("oracle ⊕ delta %d: %v", i, err)
		}
		cur = next
		states = append(states, cur)
	}
	return states
}

// assertShardOracle checks the sharded dataset verdict-identical to an
// UNSHARDED from-scratch preprocessing of the oracle's raw data — sharding
// must never change an answer, crashed and recovered or not.
func assertShardOracle(t *testing.T, cs shardCrashScheme, ds store.Dataset, raw []byte, label string) {
	t.Helper()
	fresh, err := cs.inc.Preprocess(raw)
	if err != nil {
		t.Fatalf("%s: oracle preprocess: %v", label, err)
	}
	for pi, q := range cs.probes {
		got, err := ds.Answer(q)
		if err != nil {
			t.Fatalf("%s probe %d: recovered answer: %v", label, pi, err)
		}
		want, err := cs.inc.Answer(fresh, q)
		if err != nil {
			t.Fatalf("%s probe %d: oracle answer: %v", label, pi, err)
		}
		if got != want {
			t.Fatalf("%s probe %d: sharded recovered %v, unsharded oracle %v", label, pi, got, want)
		}
	}
}

// runShardMaintenance registers the sharded dataset on a fresh registry
// over f and applies batches until done or crashed; returns the last
// acknowledged version.
func runShardMaintenance(t *testing.T, f *faultfs.FS, cs shardCrashScheme, p Partitioner, cadence int) (acked uint64, reg *store.Registry) {
	t.Helper()
	reg = store.NewRegistryMedium(&store.Medium{Dir: shardCrashDir, FS: f, CheckpointEvery: cadence})
	if _, err := RegisterSharded(reg, shardCrashID, cs.inc, p, shardCrashN, cs.data); err != nil {
		t.Fatalf("register: %v (crashed=%v)", err, f.Crashed())
	}
	for bi, batch := range cs.batches {
		v, err := reg.ApplyDelta(shardCrashID, batch)
		if err != nil {
			if !f.Crashed() {
				t.Fatalf("batch %d failed without a crash: %v", bi, err)
			}
			return acked, reg
		}
		acked = v
	}
	return acked, reg
}

// recoverShardAndVerify restarts the medium, re-registers sharded, and
// asserts: loaded from the manifest (never re-partitioned/re-preprocessed),
// at exactly the acknowledged version, verdict-identical to the oracle.
func recoverShardAndVerify(t *testing.T, f *faultfs.FS, cs shardCrashScheme, p Partitioner, cadence int, acked uint64, states [][]byte, label string) (*ShardedStore, *store.Registry) {
	t.Helper()
	f.Restart()
	reg := store.NewRegistryMedium(&store.Medium{Dir: shardCrashDir, FS: f, CheckpointEvery: cadence})
	ss, err := RegisterSharded(reg, shardCrashID, cs.inc, p, shardCrashN, cs.data)
	if err != nil {
		t.Fatalf("%s: recovery registration: %v", label, err)
	}
	if !ss.WasLoaded() {
		t.Fatalf("%s: recovery re-preprocessed instead of loading the manifest", label)
	}
	if got := ss.Version(); got != acked {
		t.Fatalf("%s: recovered version %d, want acknowledged %d", label, got, acked)
	}
	assertShardOracle(t, cs, ss, states[acked], label+": recovered state")
	return ss, reg
}

// finishShardAndVerify applies the remaining deltas and checks the final
// state — recovered sharded datasets must keep maintaining correctly.
func finishShardAndVerify(t *testing.T, reg *store.Registry, cs shardCrashScheme, from uint64, states [][]byte, label string) {
	t.Helper()
	deltas := shardFlatDeltas(cs)
	total := uint64(len(deltas))
	if from < total {
		v, err := reg.ApplyDelta(shardCrashID, deltas[from:])
		if err != nil {
			t.Fatalf("%s: continue after recovery: %v", label, err)
		}
		if v != total {
			t.Fatalf("%s: continued to version %d, want %d", label, v, total)
		}
	}
	ds, ok := reg.GetDataset(shardCrashID)
	if !ok {
		t.Fatalf("%s: dataset vanished", label)
	}
	assertShardOracle(t, cs, ds, states[total], label+": final state")
}

// TestCrashMatrixSharded sweeps the kill point over every file-system
// operation of the sharded maintenance phase, for every delta-capable
// scheme × hash/range partitioning.
func TestCrashMatrixSharded(t *testing.T) {
	for _, cs := range shardCrashSchemes() {
		for _, p := range []Partitioner{HashPartitioner{}, RangePartitioner{}} {
			t.Run(cs.name+"/"+p.Name(), func(t *testing.T) {
				states := shardOracleStates(t, cs)
				total := uint64(len(shardFlatDeltas(cs)))

				setup := faultfs.New()
				sreg := store.NewRegistryMedium(&store.Medium{Dir: shardCrashDir, FS: setup, CheckpointEvery: 1})
				if _, err := RegisterSharded(sreg, shardCrashID, cs.inc, p, shardCrashN, cs.data); err != nil {
					t.Fatal(err)
				}
				setupOps := setup.Ops()
				dry := faultfs.New()
				if acked, _ := runShardMaintenance(t, dry, cs, p, 1); acked != total {
					t.Fatalf("dry run acknowledged %d deltas, want %d", acked, total)
				}
				totalOps := dry.Ops()
				if totalOps <= setupOps {
					t.Fatalf("no maintenance ops to crash (%d setup, %d total)", setupOps, totalOps)
				}

				for k := setupOps; k < totalOps; k++ {
					f := faultfs.New()
					f.SetTornBytes(5)
					f.CrashAfterOps(k)
					acked, _ := runShardMaintenance(t, f, cs, p, 1)
					if !f.Crashed() {
						t.Fatalf("crashAt=%d did not fire (trace len %d)", k, f.Ops())
					}
					label := "crashAt=" + dry.Trace()[k]
					_, reg2 := recoverShardAndVerify(t, f, cs, p, 1, acked, states, label)
					finishShardAndVerify(t, reg2, cs, acked, states, label)
				}
			})
		}
	}
}

// shardFindOp returns the absolute index of the nth (0-based) trace entry
// containing fragment.
func shardFindOp(t *testing.T, trace []string, fragment string, nth int) int {
	t.Helper()
	seen := 0
	for i, e := range trace {
		if strings.Contains(e, fragment) {
			if seen == nth {
				return i
			}
			seen++
		}
	}
	t.Fatalf("trace has no occurrence %d of %q (len %d)", nth, fragment, len(trace))
	return -1
}

// TestCrashKillPointsSharded pins the five named kill points on the sharded
// protocol, per scheme × partitioner, against the delete batch (batch 1).
// The manifest rename is the commit, so "mid-checkpoint" kills the atomic
// rename that would publish the new checkpoint — the old manifest must
// survive and the log must replay the batch.
func TestCrashKillPointsSharded(t *testing.T) {
	logPath := store.LogPath(shardCrashDir, shardCrashID)
	maniPath := store.DatasetPath(shardCrashDir, shardCrashID)
	for _, cs := range shardCrashSchemes() {
		for _, p := range []Partitioner{HashPartitioner{}, RangePartitioner{}} {
			t.Run(cs.name+"/"+p.Name(), func(t *testing.T) {
				states := shardOracleStates(t, cs)
				dry := faultfs.New()
				runShardMaintenance(t, dry, cs, p, 1)
				trace := dry.Trace()

				// Batch 1 (the delete batch). Registration writes the manifest
				// once and removes the (absent) stale log once; each prior
				// batch adds one more manifest rename and log removal.
				const b = 1
				vBefore := uint64(len(cs.batches[0]))
				vAfter := vBefore + uint64(len(cs.batches[b]))
				points := []struct {
					name    string
					idx     int
					torn    int
					acked   uint64
					replays int64
				}{
					{"pre-log-append", shardFindOp(t, trace, "open "+logPath, b), 0, vBefore, 0},
					{"mid-record-torn", shardFindOp(t, trace, "write "+logPath, b), 6, vBefore, 0},
					{"post-log-pre-commit", shardFindOp(t, trace, "sync "+logPath, b) + 2, 0, vAfter, 1},
					{"mid-checkpoint", shardFindOp(t, trace, "-> "+maniPath, b+1), 0, vAfter, 1},
					{"post-checkpoint-pre-truncate", shardFindOp(t, trace, "remove "+logPath, b+1), 0, vAfter, 0},
				}
				for _, pt := range points {
					t.Run(pt.name, func(t *testing.T) {
						f := faultfs.New()
						f.SetTornBytes(pt.torn)
						f.CrashAfterOps(pt.idx)
						acked, _ := runShardMaintenance(t, f, cs, p, 1)
						if !f.Crashed() {
							t.Fatalf("kill point op %d (%s) did not fire", pt.idx, trace[pt.idx])
						}
						if acked != pt.acked {
							t.Fatalf("acknowledged version %d, want %d", acked, pt.acked)
						}
						ss, reg := recoverShardAndVerify(t, f, cs, p, 1, pt.acked, states, pt.name)
						if got := reg.ReplayCount(); got != pt.replays {
							t.Fatalf("replayed %d log records, want %d", got, pt.replays)
						}
						if ss.ShardCount() != shardCrashN {
							t.Fatalf("recovered %d shards, want %d", ss.ShardCount(), shardCrashN)
						}
						finishShardAndVerify(t, reg, cs, pt.acked, states, pt.name)
					})
				}
			})
		}
	}
}

// TestCrashShardedReplayAll hard-kills with a cadence larger than the
// scenario: the manifest never advanced past registration, every batch
// lives in the log, and recovery replays the whole history, checkpoints it
// over the manifest, and truncates the log.
func TestCrashShardedReplayAll(t *testing.T) {
	for _, cs := range shardCrashSchemes() {
		t.Run(cs.name, func(t *testing.T) {
			states := shardOracleStates(t, cs)
			total := uint64(len(shardFlatDeltas(cs)))
			const cadence = 100
			p := RangePartitioner{}
			f := faultfs.New()
			if acked, _ := runShardMaintenance(t, f, cs, p, cadence); acked != total {
				t.Fatalf("acknowledged %d, want %d", acked, total)
			}
			_, reg := recoverShardAndVerify(t, f, cs, p, cadence, total, states, "replay-all")
			if got, want := reg.ReplayCount(), int64(len(cs.batches)); got != want {
				t.Fatalf("replayed %d records, want %d", got, want)
			}
			// The replay folded into a durable checkpoint: log truncated, and
			// the directory holds the manifest and nothing else.
			if recs, err := store.ReadLog(f, store.LogPath(shardCrashDir, shardCrashID)); err != nil || len(recs) != 0 {
				t.Fatalf("log after replay checkpoint: %d records, err=%v", len(recs), err)
			}
			names, err := f.ReadDirNames(shardCrashDir)
			if err != nil {
				t.Fatal(err)
			}
			if want := filepath.Base(store.DatasetPath(shardCrashDir, shardCrashID)); len(names) != 1 || names[0] != want {
				t.Fatalf("after the replay checkpoint the directory holds %q, want only %s", names, want)
			}
			// A second restart finds the checkpoint and replays nothing.
			f.Restart()
			reg2 := store.NewRegistryMedium(&store.Medium{Dir: shardCrashDir, FS: f, CheckpointEvery: cadence})
			ss2, err := RegisterSharded(reg2, shardCrashID, cs.inc, p, shardCrashN, cs.data)
			if err != nil {
				t.Fatal(err)
			}
			if ss2.Version() != total || reg2.ReplayCount() != 0 {
				t.Fatalf("second restart: version %d (want %d), replays %d (want 0)",
					ss2.Version(), total, reg2.ReplayCount())
			}
		})
	}
}
