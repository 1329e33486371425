package store_test

// The crash matrix: run the full durable maintenance protocol — register,
// PATCH batches of inserts and deletes, write-ahead log, checkpoint —
// over the fault-injecting medium (internal/store/faultfs), kill it at
// EVERY file-system operation, restart, and require the recovered dataset
// to sit exactly at the last acknowledged version with Π byte-exact against
// a from-scratch rebuild of the data at that version. The sweep subsumes the five named kill points —
// pre-log-append, mid-record (torn), post-log-pre-commit, mid-checkpoint,
// post-checkpoint-pre-truncate — which TestCrashKillPoints also pins by
// name, with the exact recovery behavior (replayed vs skipped) each implies.
//
// This file is an external test package: faultfs imports store, so an
// in-package test would be an import cycle — and everything the matrix
// needs is exported API, which is the point of the FS/Medium seam.

import (
	"bytes"
	"strings"
	"testing"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
	"pitract/internal/store/faultfs"
)

const (
	crashDir = "/data"
	crashID  = "d"
)

// crashScheme is one scheme's crash scenario: a dataset plus delta batches
// that exercise both kinds (each batch is one PATCH = one log record;
// versions count deltas).
type crashScheme struct {
	name    string
	inc     *core.Scheme
	data    []byte
	batches [][][]byte
	probes  [][]byte
}

// crashSchemes covers the four delta-capable schemes with mixed-kind
// batches: inserts, deletes of original and of freshly inserted elements,
// re-insertion of deleted ones, and an idempotent no-op tombstone.
func crashSchemes() []crashScheme {
	keyData := schemes.RelationFromKeys([]int64{2, 4, 6, 8, 10})
	keyBatches := func() [][][]byte {
		return [][][]byte{
			{schemes.KeysDelta([]int64{101, 103})},
			{schemes.KeysDeleteDelta([]int64{4, 101})},
			{schemes.KeysDelta([]int64{4, 200}), schemes.KeysDelta([]int64{7})},
			{schemes.KeysDeleteDelta([]int64{999})}, // absent: idempotent tombstone
		}
	}
	keyProbes := make([][]byte, 0, 32)
	for _, k := range []int64{2, 4, 6, 7, 8, 10, 101, 103, 200, 999, 1, 5} {
		keyProbes = append(keyProbes, schemes.PointQuery(k))
	}
	rangeProbes := make([][]byte, 0, 16)
	for _, r := range [][2]int64{{0, 3}, {3, 5}, {5, 7}, {7, 9}, {100, 104}, {199, 201}, {900, 1000}, {11, 100}} {
		rangeProbes = append(rangeProbes, schemes.RangeQuery(r[0], r[1]))
	}

	// Two directed chains; the batches bridge, cut, and re-bridge them.
	g := graph.New(8, true)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}} {
		g.MustAddEdge(e[0], e[1])
	}
	edgeBatches := [][][]byte{
		{schemes.EdgeDelta(3, 4)},                                // bridge the chains
		{schemes.EdgeDeleteDelta(1, 2)},                          // cut the first chain
		{schemes.EdgeDelta(1, 2), schemes.EdgeDeleteDelta(3, 4)}, // restore, un-bridge
		{schemes.EdgeDelta(0, 1)},                                // present: no-op insert
	}
	pairProbes := make([][]byte, 0, 64)
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			pairProbes = append(pairProbes, schemes.NodePairQuery(u, v))
		}
	}

	return []crashScheme{
		{
			name: "point-selection/sorted-keys", inc: schemes.PointSelectionScheme(),
			data: keyData, batches: keyBatches(), probes: keyProbes,
		},
		{
			name: "range-selection/sorted-keys", inc: schemes.RangeSelectionScheme(),
			data: keyData, batches: keyBatches(), probes: rangeProbes,
		},
		{
			name: "list-membership/sorted", inc: schemes.ListMembershipScheme(),
			data: schemes.EncodeList([]int64{2, 4, 6, 8, 10}), batches: keyBatches(),
			probes: keyProbes,
		},
		{
			name: "reachability/closure-matrix", inc: schemes.ReachabilityScheme(),
			data: g.Encode(), batches: edgeBatches, probes: pairProbes,
		},
	}
}

// flatDeltas flattens a scenario's batches into one delta-per-version list.
func flatDeltas(cs crashScheme) [][]byte {
	var out [][]byte
	for _, b := range cs.batches {
		out = append(out, b...)
	}
	return out
}

// oracleStates returns the raw dataset at every version boundary:
// states[v] = D ⊕ ∆D₁ ⊕ … ⊕ ∆Dᵥ, the ground truth the recovered Π at
// version v is checked against.
func oracleStates(t *testing.T, cs crashScheme) [][]byte {
	t.Helper()
	states := [][]byte{cs.data}
	cur := cs.data
	for i, d := range flatDeltas(cs) {
		next, err := cs.inc.ApplyUpdate(cur, d)
		if err != nil {
			t.Fatalf("oracle ⊕ delta %d: %v", i, err)
		}
		cur = next
		states = append(states, cur)
	}
	return states
}

// assertOracle checks a store against a from-scratch preprocessing of the
// oracle's raw data — byte-exact, and verdict-exact on every probe.
func assertOracle(t *testing.T, cs crashScheme, st *store.Store, raw []byte, label string) {
	t.Helper()
	fresh, err := cs.inc.Preprocess(raw)
	if err != nil {
		t.Fatalf("%s: oracle preprocess: %v", label, err)
	}
	if maintained, _ := st.View(); !bytes.Equal(maintained, fresh) {
		t.Fatalf("%s: recovered Π diverges from rebuilt Π (%d vs %d bytes)",
			label, len(maintained), len(fresh))
	}
	for pi, q := range cs.probes {
		got, err := st.Answer(q)
		if err != nil {
			t.Fatalf("%s probe %d: recovered answer: %v", label, pi, err)
		}
		want, err := cs.inc.Answer(fresh, q)
		if err != nil {
			t.Fatalf("%s probe %d: oracle answer: %v", label, pi, err)
		}
		if got != want {
			t.Fatalf("%s probe %d: recovered %v, oracle %v", label, pi, got, want)
		}
	}
}

// runMaintenance registers the scenario's dataset on a fresh registry over
// f and applies its batches until done or until the armed crash interrupts.
// It returns the last acknowledged version. A batch may succeed even after
// the crash fires (a checkpoint-phase crash does not revoke the durable log
// append); only an error ends the run.
func runMaintenance(t *testing.T, f *faultfs.FS, cs crashScheme, cadence int) (acked uint64, reg *store.Registry) {
	t.Helper()
	reg = store.NewRegistryMedium(&store.Medium{Dir: crashDir, FS: f, CheckpointEvery: cadence})
	if _, err := reg.Register(crashID, cs.inc, cs.data); err != nil {
		t.Fatalf("register: %v (crashed=%v)", err, f.Crashed())
	}
	for bi, batch := range cs.batches {
		v, err := reg.ApplyDelta(crashID, batch)
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

// recoverAndVerify restarts the crashed medium, re-registers, and asserts
// the recovered store: loaded (never re-preprocessed), at exactly the last
// acknowledged version — the write-ahead protocol makes acknowledgement and
// durability the same event — and equivalent to the oracle at that version.
func recoverAndVerify(t *testing.T, f *faultfs.FS, cs crashScheme, cadence int, acked uint64, states [][]byte, label string) (*store.Store, *store.Registry) {
	t.Helper()
	f.Restart()
	reg := store.NewRegistryMedium(&store.Medium{Dir: crashDir, FS: f, CheckpointEvery: cadence})
	st, err := reg.Register(crashID, cs.inc, cs.data)
	if err != nil {
		t.Fatalf("%s: recovery registration: %v", label, err)
	}
	if !st.WasLoaded() {
		t.Fatalf("%s: recovery re-preprocessed instead of loading the snapshot", label)
	}
	if got := st.Version(); got != acked {
		t.Fatalf("%s: recovered version %d, want acknowledged %d", label, got, acked)
	}
	assertOracle(t, cs, st, states[acked], label+": recovered state")
	return st, reg
}

// finishAndVerify applies every delta beyond the recovered version and
// checks the final state — recovery must leave a dataset that not only
// answers correctly but keeps maintaining correctly.
func finishAndVerify(t *testing.T, reg *store.Registry, cs crashScheme, from uint64, states [][]byte, label string) {
	t.Helper()
	deltas := flatDeltas(cs)
	total := uint64(len(deltas))
	if from < total {
		v, err := reg.ApplyDelta(crashID, deltas[from:])
		if err != nil {
			t.Fatalf("%s: continue after recovery: %v", label, err)
		}
		if v != total {
			t.Fatalf("%s: continued to version %d, want %d", label, v, total)
		}
	}
	st, ok := reg.Get(crashID)
	if !ok {
		t.Fatalf("%s: dataset vanished", label)
	}
	assertOracle(t, cs, st, states[total], label+": final state")
}

// TestCrashMatrixStore is the full sweep: for every scheme, kill the medium
// at every single file-system operation of the maintenance phase (with a
// torn tail on whichever operation is a write), restart, and verify
// recovery and continued maintenance.
func TestCrashMatrixStore(t *testing.T) {
	for _, cs := range crashSchemes() {
		t.Run(cs.name, func(t *testing.T) {
			states := oracleStates(t, cs)
			total := uint64(len(flatDeltas(cs)))

			// Dry runs: count the registration ops and the full scenario ops.
			setup := faultfs.New()
			reg := store.NewRegistryMedium(&store.Medium{Dir: crashDir, FS: setup, CheckpointEvery: 1})
			if _, err := reg.Register(crashID, cs.inc, cs.data); err != nil {
				t.Fatal(err)
			}
			setupOps := setup.Ops()
			dry := faultfs.New()
			if acked, _ := runMaintenance(t, dry, cs, 1); acked != total {
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
				acked, _ := runMaintenance(t, f, cs, 1)
				if !f.Crashed() {
					t.Fatalf("crashAt=%d did not fire (trace len %d)", k, f.Ops())
				}
				label := dry.Trace()[k]
				_, reg2 := recoverAndVerify(t, f, cs, 1, acked, states,
					"crashAt="+label)
				finishAndVerify(t, reg2, cs, acked, states, "crashAt="+label)
			}
		})
	}
}

// findOp returns the absolute index of the nth (0-based) trace entry with
// the given prefix or containing the given fragment.
func findOp(t *testing.T, trace []string, fragment string, nth int) int {
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

// TestCrashKillPoints pins the five named kill points of the commit
// protocol by locating them in a dry-run trace, for every scheme. The
// target is the scenario's delete batch (batch index 1), so deletions —
// not just inserts — are what recovery replays or discards. Expected
// recovery per point (checkpoint cadence 1, batch = 1 delta, acked = the
// last version ApplyDelta returned):
//
//	pre-log-append        crash opening the log: batch refused, nothing
//	                      durable — recovered = version before the batch.
//	mid-record (torn)     crash inside the record write, torn prefix on
//	                      the platter: ReadLog discards the tail —
//	                      recovered = version before the batch.
//	post-log-pre-commit   log record durable, checkpoint never started:
//	                      the batch WAS acknowledged — recovered = its
//	                      version, via one replayed record.
//	mid-checkpoint        crash at the snapshot rename: old snapshot
//	                      survives (atomic write), log replays — recovered
//	                      = acknowledged version, one replayed record.
//	post-checkpoint-      new snapshot durable, stale log left behind:
//	pre-truncate          records skip as already checkpointed — recovered
//	                      = acknowledged version, zero replays.
func TestCrashKillPoints(t *testing.T) {
	logPath := store.LogPath(crashDir, crashID)
	snapPath := store.DatasetPath(crashDir, crashID)
	for _, cs := range crashSchemes() {
		t.Run(cs.name, func(t *testing.T) {
			states := oracleStates(t, cs)
			dry := faultfs.New()
			runMaintenance(t, dry, cs, 1)
			trace := dry.Trace()

			// Batch index 1 (the delete batch). Registration itself performs
			// one rename-to-snapshot and one remove-log (of the absent log),
			// and each prior batch one more of each — hence the occurrence
			// arithmetic below.
			const b = 1
			vBefore := uint64(len(cs.batches[0]))          // versions acked before batch 1
			vAfter := vBefore + uint64(len(cs.batches[b])) // version after batch 1
			points := []struct {
				name    string
				idx     int
				torn    int
				acked   uint64
				replays int64
			}{
				{"pre-log-append", findOp(t, trace, "open "+logPath, b), 0, vBefore, 0},
				{"mid-record-torn", findOp(t, trace, "write "+logPath, b), 6, vBefore, 0},
				// After the log's sync comes its creation SyncDir, then the
				// checkpoint's first op: crash there = record durable,
				// checkpoint never ran.
				{"post-log-pre-commit", findOp(t, trace, "sync "+logPath, b) + 2, 0, vAfter, 1},
				{"mid-checkpoint", findOp(t, trace, "-> "+snapPath, b+1), 0, vAfter, 1},
				{"post-checkpoint-pre-truncate", findOp(t, trace, "remove "+logPath, b+1), 0, vAfter, 0},
			}
			for _, p := range points {
				t.Run(p.name, func(t *testing.T) {
					f := faultfs.New()
					f.SetTornBytes(p.torn)
					f.CrashAfterOps(p.idx)
					acked, _ := runMaintenance(t, f, cs, 1)
					if !f.Crashed() {
						t.Fatalf("kill point op %d (%s) did not fire", p.idx, trace[p.idx])
					}
					if acked != p.acked {
						t.Fatalf("acknowledged version %d, want %d", acked, p.acked)
					}
					f.Restart()
					reg := store.NewRegistryMedium(&store.Medium{Dir: crashDir, FS: f, CheckpointEvery: 1})
					st, err := reg.Register(crashID, cs.inc, cs.data)
					if err != nil {
						t.Fatalf("recovery: %v", err)
					}
					if got := st.Version(); got != p.acked {
						t.Fatalf("recovered version %d, want %d", got, p.acked)
					}
					if got := reg.ReplayCount(); got != p.replays {
						t.Fatalf("replayed %d log records, want %d", got, p.replays)
					}
					assertOracle(t, cs, st, states[p.acked], p.name)
					finishAndVerify(t, reg, cs, p.acked, states, p.name)
				})
			}
		})
	}
}

// TestCrashReplayMultiRecord runs with a checkpoint cadence larger than the
// scenario, so every batch lives only in the log; a hard kill then forces
// recovery to replay the whole history — and the replay itself must
// checkpoint, leaving no log behind.
func TestCrashReplayMultiRecord(t *testing.T) {
	for _, cs := range crashSchemes() {
		t.Run(cs.name, func(t *testing.T) {
			states := oracleStates(t, cs)
			total := uint64(len(flatDeltas(cs)))
			const cadence = 100
			f := faultfs.New()
			acked, _ := runMaintenance(t, f, cs, cadence)
			if acked != total {
				t.Fatalf("acknowledged %d, want %d", acked, total)
			}
			// Hard kill: no checkpoint ever ran, the snapshot is still at
			// version 0, the log holds every batch.
			st, reg := recoverAndVerify(t, f, cs, cadence, total, states, "replay-all")
			if got, want := reg.ReplayCount(), int64(len(cs.batches)); got != want {
				t.Fatalf("replayed %d records, want %d", got, want)
			}
			if !st.WasLoaded() {
				t.Fatal("recovery re-preprocessed")
			}
			// The replay folded into a checkpoint: log gone, snapshot at the
			// replayed version — a second restart replays nothing.
			if recs, err := store.ReadLog(f, store.LogPath(crashDir, crashID)); err != nil || len(recs) != 0 {
				t.Fatalf("log after replay checkpoint: %d records, err=%v", len(recs), err)
			}
			f.Restart()
			reg2 := store.NewRegistryMedium(&store.Medium{Dir: crashDir, FS: f, CheckpointEvery: cadence})
			st2, err := reg2.Register(crashID, cs.inc, cs.data)
			if err != nil {
				t.Fatal(err)
			}
			if st2.Version() != total || reg2.ReplayCount() != 0 {
				t.Fatalf("second restart: version %d (want %d), replays %d (want 0)",
					st2.Version(), total, reg2.ReplayCount())
			}
		})
	}
}

// TestCrashTornTailAfterDurableRecords crashes mid-append with earlier
// records already durable in the same log: recovery must keep every whole
// record and discard exactly the torn tail.
func TestCrashTornTailAfterDurableRecords(t *testing.T) {
	cs := crashSchemes()[0]
	states := oracleStates(t, cs)
	const cadence = 100
	dry := faultfs.New()
	runMaintenance(t, dry, cs, cadence)
	// The last batch's log write: batches 0..2 are durable records by then.
	idx := findOp(t, dry.Trace(), "write "+store.LogPath(crashDir, crashID), len(cs.batches)-1)

	f := faultfs.New()
	f.SetTornBytes(9)
	f.CrashAfterOps(idx)
	acked, _ := runMaintenance(t, f, cs, cadence)
	wantAcked := uint64(0)
	for _, b := range cs.batches[:len(cs.batches)-1] {
		wantAcked += uint64(len(b))
	}
	if acked != wantAcked {
		t.Fatalf("acknowledged %d, want %d", acked, wantAcked)
	}
	_, reg := recoverAndVerify(t, f, cs, cadence, wantAcked, states, "torn-tail")
	if got, want := reg.ReplayCount(), int64(len(cs.batches)-1); got != want {
		t.Fatalf("replayed %d records, want %d (whole records kept, torn tail dropped)", got, want)
	}
	finishAndVerify(t, reg, cs, wantAcked, states, "torn-tail")
}

// TestCrashDuplicateReplayIsIdempotent injects a write failure into the
// post-replay checkpoint, so the log survives recovery — the next restart
// replays the SAME records a second time and must land on the same state,
// not double-apply them.
func TestCrashDuplicateReplayIsIdempotent(t *testing.T) {
	cs := crashSchemes()[3] // closure maintenance is the least idempotent-looking
	states := oracleStates(t, cs)
	total := uint64(len(flatDeltas(cs)))
	const cadence = 100
	f := faultfs.New()
	if acked, _ := runMaintenance(t, f, cs, cadence); acked != total {
		t.Fatalf("acknowledged %d, want %d", acked, total)
	}
	f.Restart()
	f.FailAfterWrites(0) // recovery's checkpoint write fails; replay stands
	reg := store.NewRegistryMedium(&store.Medium{Dir: crashDir, FS: f, CheckpointEvery: cadence})
	st, err := reg.Register(crashID, cs.inc, cs.data)
	if err != nil {
		t.Fatalf("recovery with failing checkpoint: %v", err)
	}
	if st.Version() != total {
		t.Fatalf("recovered version %d, want %d", st.Version(), total)
	}
	if recs, err := store.ReadLog(f, store.LogPath(crashDir, crashID)); err != nil || len(recs) != len(cs.batches) {
		t.Fatalf("log should survive a failed replay checkpoint: %d records, err=%v", len(recs), err)
	}

	// Second restart: the same records replay again on the same old
	// snapshot; the state must be identical, and this time the checkpoint
	// sticks.
	f.Restart()
	reg2 := store.NewRegistryMedium(&store.Medium{Dir: crashDir, FS: f, CheckpointEvery: cadence})
	st2, err := reg2.Register(crashID, cs.inc, cs.data)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Version() != total {
		t.Fatalf("duplicate replay landed on version %d, want %d", st2.Version(), total)
	}
	if got, want := reg2.ReplayCount(), int64(len(cs.batches)); got != want {
		t.Fatalf("duplicate replay applied %d records, want %d", got, want)
	}
	assertOracle(t, cs, st2, states[total], "duplicate replay")
	if recs, _ := store.ReadLog(f, store.LogPath(crashDir, crashID)); len(recs) != 0 {
		t.Fatalf("log not truncated after successful replay checkpoint: %d records", len(recs))
	}
}

// TestCrashLyingFsyncLosesQuietly documents the one fault the protocol
// cannot detect: a medium that acknowledges fsync without persisting
// anything. Acknowledged batches vanish — but recovery still lands on a
// CONSISTENT earlier version (the registration snapshot), never on torn
// state.
func TestCrashLyingFsyncLosesQuietly(t *testing.T) {
	cs := crashSchemes()[0]
	states := oracleStates(t, cs)
	const cadence = 100
	f := faultfs.New()
	reg := store.NewRegistryMedium(&store.Medium{Dir: crashDir, FS: f, CheckpointEvery: cadence})
	if _, err := reg.Register(crashID, cs.inc, cs.data); err != nil {
		t.Fatal(err)
	}
	f.LieOnSync(true) // every fsync from here on is a lie
	for _, batch := range cs.batches {
		if _, err := reg.ApplyDelta(crashID, batch); err != nil {
			t.Fatalf("lying medium must still acknowledge: %v", err)
		}
	}
	f.Restart()
	reg2 := store.NewRegistryMedium(&store.Medium{Dir: crashDir, FS: f, CheckpointEvery: cadence})
	st2, err := reg2.Register(crashID, cs.inc, cs.data)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Version() != 0 {
		t.Fatalf("version %d survived a lying fsync, want 0", st2.Version())
	}
	assertOracle(t, cs, st2, states[0], "lying fsync")
}

// TestCrashReplayGapIsAnError pins the missing-batch detector: a log whose
// first live record starts above the snapshot version means an acknowledged
// batch vanished, and registration must refuse rather than silently resume
// behind acknowledged state.
func TestCrashReplayGapIsAnError(t *testing.T) {
	cs := crashSchemes()[0]
	f := faultfs.New()
	reg := store.NewRegistryMedium(&store.Medium{Dir: crashDir, FS: f, CheckpointEvery: 1})
	if _, err := reg.Register(crashID, cs.inc, cs.data); err != nil {
		t.Fatal(err)
	}
	// Forge a log record claiming versions [3,4) on a version-0 snapshot.
	if err := store.AppendLogRecord(f, store.LogPath(crashDir, crashID), 3,
		[][]byte{schemes.KeysDelta([]int64{42})}); err != nil {
		t.Fatal(err)
	}
	f.Restart()
	reg2 := store.NewRegistryMedium(&store.Medium{Dir: crashDir, FS: f, CheckpointEvery: 1})
	_, err := reg2.Register(crashID, cs.inc, cs.data)
	if err == nil {
		t.Fatal("registration resumed over a log gap")
	}
	if !strings.Contains(err.Error(), "missing") {
		t.Fatalf("gap error %q does not name the missing batch", err)
	}
}
