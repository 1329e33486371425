package shard

// The crash suite of the write side, one table per protocol whose rows are
// layouts: a plain dataset and one split into key ranges are each one
// store.Store, persisted as one file at store.DatasetPath with one
// write-ahead log beside it (logging the original, unsplit deltas),
// checkpointed on the medium's cadence and replayed at registration — so one
// driver runs every layout, and only the registration call differs. The
// medium is the fault-injecting internal/store/faultfs.
//
//   - TestCrashMatrix kills the medium at every file-system operation of the
//     maintenance phase, with a torn tail on whichever operation is a write.
//   - TestCrashKillPoints pins the five named kill points of the commit
//     protocol by the recovery each implies (replayed vs skipped).
//   - TestCrashRecovery runs the named restart scenarios: a whole history
//     replayed, a torn tail after durable records, a duplicate replay, a
//     lying fsync, a log gap, and a corrupt checkpoint quarantined beside
//     its log.
//
// A recovered dataset must sit at exactly the last acknowledged version and
// match the oracle (assertOracle): a from-scratch, unsharded preprocessing of
// the data at that version.

import (
	"bytes"
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
	crashDir = "/data"
	crashID  = "d"
	crashN   = 2   // the parts of a sharded crash layout
	lazy     = 100 // a checkpoint cadence no scenario reaches: batches live in the log
	// manyParts is the server's shard cap, the finest split a registration
	// can ask for: the small datasets of these suites have fewer keys or
	// vertices, so a part holds one element or none, every edge crosses and
	// a range query fans out — the scattered cut, on any input.
	manyParts = 64
)

// layout is one way to lay a dataset out: plain (n = 1), or n > 1 key
// ranges.
type layout struct {
	name string
	n    int
}

// crashLayouts are the rows of every crash table.
var crashLayouts = []layout{{"plain", 1}, {"range", crashN}, {"range/64", manyParts}}

// register registers data under id in layout l: the one step where layouts
// differ.
func (l layout) register(reg *store.Registry, id string, inc *core.Scheme, data []byte) (store.Dataset, error) {
	if l.n == 1 {
		return reg.Register(id, inc, data)
	}
	return RegisterSharded(reg, id, inc, l.n, data)
}

// run is scenario sc in layout l, registered under scheme inc: the
// scenario's own, or one wrapped to inject a fault.
func (l layout) run(sc scenario, inc *core.Scheme) run {
	return run{sc, l.n, func(reg *store.Registry) (store.Dataset, error) { return l.register(reg, crashID, inc, sc.data) }}
}

// scenario is a dataset, the batches that maintain it (one PATCH and one log
// record each; versions count deltas), and the probes the oracle checks.
type scenario struct {
	name    string
	inc     *core.Scheme
	data    []byte
	batches [][][]byte
	probes  [][]byte
}

// crashScenarios covers the four delta-capable scheme families with
// mixed-kind batches: inserts, deletes of original and of freshly inserted
// elements, re-insertion of deleted ones, and an idempotent no-op. The keys
// spread over both parts of a range layout, and the graph's two chains are
// bridged, cut and re-bridged, so under range partitioning the deltas hit
// both local closures and the cross-edge summary.
func crashScenarios() []scenario {
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

	return []scenario{
		{"point-selection/sorted-keys", schemes.PointSelectionScheme(), keyData, keyBatches(), keyProbes},
		{"range-selection/sorted-keys", schemes.PointSelectionScheme(), keyData, keyBatches(), rangeProbes}, // its RangeQuery
		{"list-membership/sorted", schemes.ListMembershipScheme(),
			schemes.EncodeList([]int64{2, 4, 6, 8, 10, 400, 402, 404}), keyBatches(), keyProbes},
		{"reachability/closure-matrix", schemes.ReachabilityScheme(), g.Encode(), edgeBatches, pairProbes},
	}
}

// deltas flattens the batches into version order.
func (sc scenario) deltas() [][]byte {
	var out [][]byte
	for _, b := range sc.batches {
		out = append(out, b...)
	}
	return out
}

// states returns the raw dataset at every version: states[v] = D ⊕ ∆D₁ ⊕ … ⊕
// ∆Dᵥ, the ground truth a dataset at version v is checked against.
func (sc scenario) states(t *testing.T) [][]byte {
	t.Helper()
	states := [][]byte{sc.data}
	for i, d := range sc.deltas() {
		next, err := sc.inc.ApplyUpdate(states[i], d)
		if err != nil {
			t.Fatalf("oracle ⊕ delta %d: %v", i, err)
		}
		states = append(states, next)
	}
	return states
}

// assertOracle checks ds against a from-scratch, unsharded preprocessing of
// raw: verdict for verdict on every probe, asked one by one and as a batch —
// sharding must never change an answer — and, for a plain dataset, Π byte for
// byte.
func assertOracle(t *testing.T, sc scenario, ds store.Dataset, raw []byte, label string) {
	t.Helper()
	fresh, err := sc.inc.Preprocess(raw)
	if err != nil {
		t.Fatalf("%s: oracle preprocess: %v", label, err)
	}
	if st, ok := ds.(*store.Store); ok {
		if maintained, _ := st.View(); !bytes.Equal(maintained, fresh) {
			t.Fatalf("%s: Π diverges from a rebuild's (%d vs %d bytes)", label, len(maintained), len(fresh))
		}
	}
	batch, err := ds.AnswerBatch(sc.probes, 2)
	if err != nil {
		t.Fatalf("%s: batch: %v", label, err)
	}
	for pi, q := range sc.probes {
		want, err := sc.inc.Answer(fresh, q)
		if err != nil {
			t.Fatalf("%s probe %d: oracle answer: %v", label, pi, err)
		}
		if got, err := ds.Answer(q); err != nil || got != want || batch[pi] != want {
			t.Fatalf("%s probe %d: answered %v (%v), in a batch %v; the unsharded oracle %v", label, pi, got, err, batch[pi], want)
		}
	}
}

// run is one scenario and the registration that serves it in shards parts.
type run struct {
	sc       scenario
	shards   int
	register func(reg *store.Registry) (store.Dataset, error)
}

// open registers the run's dataset on a fresh registry over f.
func (r run) open(t *testing.T, f *faultfs.FS, cadence int) (*store.Registry, store.Dataset) {
	t.Helper()
	reg := store.NewRegistryMedium(&store.Medium{Dir: crashDir, FS: f, CheckpointEvery: cadence})
	ds, err := r.register(reg)
	if err != nil {
		t.Fatalf("register: %v (crashed=%v)", err, f.Crashed())
	}
	return reg, ds
}

// maintain opens the run over f and applies its batches until done or until
// the armed crash interrupts, and returns the last acknowledged version. A
// batch may succeed after the crash fired (a checkpoint-phase crash does not
// revoke the durable log append); only an error ends the run.
func (r run) maintain(t *testing.T, f *faultfs.FS, cadence int) (acked uint64) {
	t.Helper()
	reg, _ := r.open(t, f, cadence)
	for bi, batch := range r.sc.batches {
		v, err := reg.ApplyDelta(crashID, batch)
		if err != nil {
			if !f.Crashed() {
				t.Fatalf("batch %d failed without a crash: %v", bi, err)
			}
			break
		}
		acked = v
	}
	return acked
}

// restart restarts f, reopens the run, and checks the recovered dataset:
// loaded (never rebuilt), at exactly the acknowledged version — the
// write-ahead protocol makes acknowledgement and durability one event — in
// all its shards, and equal to the oracle there.
func (r run) restart(t *testing.T, f *faultfs.FS, cadence int, acked uint64, states [][]byte, label string) (*store.Registry, store.Dataset) {
	t.Helper()
	f.Restart()
	reg, ds := r.open(t, f, cadence)
	if !ds.WasLoaded() {
		t.Fatalf("%s: recovery rebuilt instead of loading the file", label)
	}
	if got := ds.Version(); got != acked {
		t.Fatalf("%s: recovered version %d, want acknowledged %d", label, got, acked)
	}
	if got := ds.ShardCount(); got != r.shards {
		t.Fatalf("%s: recovered %d shards, want %d", label, got, r.shards)
	}
	assertOracle(t, r.sc, ds, states[acked], label+": recovered state")
	return reg, ds
}

// finish applies every delta past version from and checks the final state:
// recovery must leave a dataset that keeps maintaining correctly.
func (r run) finish(t *testing.T, reg *store.Registry, from uint64, states [][]byte, label string) {
	t.Helper()
	deltas := r.sc.deltas()
	total := uint64(len(deltas))
	if from < total {
		if v, err := reg.ApplyDelta(crashID, deltas[from:]); err != nil || v != total {
			t.Fatalf("%s: continue after recovery: version %d, %v; want %d", label, v, err, total)
		}
	}
	ds, ok := reg.GetDataset(crashID)
	if !ok {
		t.Fatalf("%s: dataset vanished", label)
	}
	assertOracle(t, r.sc, ds, states[total], label+": final state")
}

// findOp returns the absolute index of the nth (0-based) trace entry
// containing fragment.
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

// forEachRow runs fn as a subtest for every scenario in every crash layout.
func forEachRow(t *testing.T, prefix string, fn func(t *testing.T, r run, states [][]byte)) {
	for _, sc := range crashScenarios() {
		for _, l := range crashLayouts {
			t.Run(prefix+sc.name+"/"+l.name, func(t *testing.T) { fn(t, l.run(sc, sc.inc), sc.states(t)) })
		}
	}
}

// TestCrashMatrix is the full sweep: kill the medium at every file-system
// operation of the maintenance phase (with a torn tail on whichever
// operation is a write), restart, and verify recovery and continued
// maintenance.
func TestCrashMatrix(t *testing.T) {
	forEachRow(t, "", func(t *testing.T, r run, states [][]byte) {
		total := uint64(len(r.sc.deltas()))
		// Dry runs: count the registration's ops and the whole scenario's.
		setup, dry := faultfs.New(), faultfs.New()
		r.open(t, setup, 1)
		if acked := r.maintain(t, dry, 1); acked != total {
			t.Fatalf("dry run acknowledged %d deltas, want %d", acked, total)
		}
		if dry.Ops() <= setup.Ops() {
			t.Fatalf("no maintenance ops to crash (%d setup, %d total)", setup.Ops(), dry.Ops())
		}
		for k := setup.Ops(); k < dry.Ops(); k++ {
			f := faultfs.New()
			f.SetTornBytes(5)
			f.CrashAfterOps(k)
			acked := r.maintain(t, f, 1)
			if !f.Crashed() {
				t.Fatalf("crashAt=%d did not fire (trace len %d)", k, f.Ops())
			}
			label := "crashAt=" + dry.Trace()[k]
			reg, _ := r.restart(t, f, 1, acked, states, label)
			r.finish(t, reg, acked, states, label)
		}
	})
}

// TestCrashKillPoints pins the five named kill points of the commit protocol
// by locating them in a dry-run trace. The target is the scenario's delete
// batch (batch 1), so deletions — not just inserts — are what recovery
// replays or discards. Expected recovery per point (checkpoint cadence 1,
// acked = the last version ApplyDelta returned):
//
//	pre-log-append        crash opening the log: batch refused, nothing
//	                      durable — recovered = version before the batch.
//	mid-record (torn)     crash inside the record write, torn prefix on
//	                      the platter: ReadLog discards the tail —
//	                      recovered = version before the batch.
//	post-log-pre-commit   log record durable, checkpoint never started:
//	                      the batch WAS acknowledged — recovered = its
//	                      version, via one replayed record.
//	mid-checkpoint        crash at the file's atomic rename: the old
//	                      checkpoint survives, the log replays — recovered
//	                      = acknowledged version, one replayed record.
//	post-checkpoint-      new checkpoint durable, stale log left behind:
//	pre-truncate          records skip as already checkpointed — recovered
//	                      = acknowledged version, zero replays.
func TestCrashKillPoints(t *testing.T) {
	logPath, path := store.LogPath(crashDir, crashID), store.DatasetPath(crashDir, crashID)
	forEachRow(t, "", func(t *testing.T, r run, states [][]byte) {
		dry := faultfs.New()
		r.maintain(t, dry, 1)
		trace := dry.Trace()

		// Registration renames the file into place once and removes the
		// (absent) stale log once, and each prior batch adds one more of
		// each — hence the occurrence arithmetic below.
		const b = 1
		vBefore := uint64(len(r.sc.batches[0]))
		vAfter := vBefore + uint64(len(r.sc.batches[b]))
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
			// checkpoint's first op: a crash there = record durable,
			// checkpoint never ran.
			{"post-log-pre-commit", findOp(t, trace, "sync "+logPath, b) + 2, 0, vAfter, 1},
			{"mid-checkpoint", findOp(t, trace, "-> "+path, b+1), 0, vAfter, 1},
			{"post-checkpoint-pre-truncate", findOp(t, trace, "remove "+logPath, b+1), 0, vAfter, 0},
		}
		for _, p := range points {
			t.Run(p.name, func(t *testing.T) {
				f := faultfs.New()
				f.SetTornBytes(p.torn)
				f.CrashAfterOps(p.idx)
				acked := r.maintain(t, f, 1)
				if !f.Crashed() {
					t.Fatalf("kill point op %d (%s) did not fire", p.idx, trace[p.idx])
				}
				if acked != p.acked {
					t.Fatalf("acknowledged version %d, want %d", acked, p.acked)
				}
				reg, _ := r.restart(t, f, 1, p.acked, states, p.name)
				if got := reg.ReplayCount(); got != p.replays {
					t.Fatalf("replayed %d log records, want %d", got, p.replays)
				}
				r.finish(t, reg, p.acked, states, p.name)
			})
		}
	})
}

// TestCrashRecovery runs the named restart scenarios on every scenario and
// layout.
func TestCrashRecovery(t *testing.T) {
	logPath, path := store.LogPath(crashDir, crashID), store.DatasetPath(crashDir, crashID)
	for _, c := range []struct {
		name string
		run  func(t *testing.T, r run, states [][]byte)
	}{
		// A hard kill with every batch only in the log: recovery replays the
		// whole history and folds it into a checkpoint, leaving no log.
		{"replay-all", func(t *testing.T, r run, states [][]byte) {
			f, total := faultfs.New(), uint64(len(r.sc.deltas()))
			if acked := r.maintain(t, f, lazy); acked != total {
				t.Fatalf("acknowledged %d, want %d", acked, total)
			}
			reg, _ := r.restart(t, f, lazy, total, states, "replay-all")
			if got, want := reg.ReplayCount(), int64(len(r.sc.batches)); got != want {
				t.Fatalf("replayed %d records, want %d", got, want)
			}
			if names, err := f.ReadDirNames(crashDir); err != nil || len(names) != 1 || names[0] != filepath.Base(path) {
				t.Fatalf("after the replay checkpoint the directory holds %q (%v), want only %s", names, err, filepath.Base(path))
			}
			if reg, _ := r.restart(t, f, lazy, total, states, "second restart"); reg.ReplayCount() != 0 {
				t.Fatalf("second restart replayed %d records, want 0", reg.ReplayCount())
			}
		}},
		// A crash mid-append with earlier records durable in the same log:
		// recovery keeps every whole record and drops exactly the torn tail.
		{"torn-tail-after-durable-records", func(t *testing.T, r run, states [][]byte) {
			dry, last := faultfs.New(), len(r.sc.batches)-1
			r.maintain(t, dry, lazy)
			f := faultfs.New()
			f.SetTornBytes(9)
			f.CrashAfterOps(findOp(t, dry.Trace(), "write "+logPath, last))
			want := uint64(len(r.sc.deltas()) - len(r.sc.batches[last]))
			if acked := r.maintain(t, f, lazy); acked != want {
				t.Fatalf("acknowledged %d, want %d", acked, want)
			}
			reg, _ := r.restart(t, f, lazy, want, states, "torn tail")
			if got := reg.ReplayCount(); got != int64(last) {
				t.Fatalf("replayed %d records, want %d (whole records kept, torn tail dropped)", got, last)
			}
			r.finish(t, reg, want, states, "torn tail")
		}},
		// The replay's checkpoint write fails, so the log survives recovery:
		// the next restart replays the SAME records a second time and must
		// land on the same state, not apply them twice.
		{"duplicate-replay-is-idempotent", func(t *testing.T, r run, states [][]byte) {
			f, total := faultfs.New(), uint64(len(r.sc.deltas()))
			if acked := r.maintain(t, f, lazy); acked != total {
				t.Fatalf("acknowledged %d, want %d", acked, total)
			}
			f.Restart()
			f.FailAfterWrites(0)
			if _, ds := r.open(t, f, lazy); ds.Version() != total {
				t.Fatalf("recovered version %d, want %d", ds.Version(), total)
			}
			if recs, err := store.ReadLog(f, logPath); err != nil || len(recs) != len(r.sc.batches) {
				t.Fatalf("a failed replay checkpoint must keep the log: %d records, %v", len(recs), err)
			}
			reg, _ := r.restart(t, f, lazy, total, states, "duplicate replay")
			if got, want := reg.ReplayCount(), int64(len(r.sc.batches)); got != want {
				t.Fatalf("duplicate replay applied %d records, want %d", got, want)
			}
			if recs, _ := store.ReadLog(f, logPath); len(recs) != 0 {
				t.Fatalf("log not truncated after a successful replay checkpoint: %d records", len(recs))
			}
		}},
		// The one fault the protocol cannot detect: a medium that
		// acknowledges fsync without persisting. Acknowledged batches vanish,
		// but recovery lands on a CONSISTENT earlier version, never on torn
		// state.
		{"lying-fsync-loses-quietly", func(t *testing.T, r run, states [][]byte) {
			f := faultfs.New()
			reg, _ := r.open(t, f, lazy)
			f.LieOnSync(true)
			for _, b := range r.sc.batches {
				if _, err := reg.ApplyDelta(crashID, b); err != nil {
					t.Fatalf("a lying medium must still acknowledge: %v", err)
				}
			}
			r.restart(t, f, lazy, 0, states, "lying fsync")
		}},
		// A log whose first live record starts above the checkpoint's version
		// means an acknowledged batch vanished: registration refuses rather
		// than resume behind acknowledged state.
		{"replay-gap-is-an-error", func(t *testing.T, r run, _ [][]byte) {
			f := faultfs.New()
			r.open(t, f, 1)
			if err := store.AppendLogRecord(f, logPath, 3, r.sc.batches[0]); err != nil {
				t.Fatal(err)
			}
			f.Restart()
			reg := store.NewRegistryMedium(&store.Medium{Dir: crashDir, FS: f, CheckpointEvery: 1})
			if _, err := r.register(reg); err == nil || !strings.Contains(err.Error(), "missing") {
				t.Fatalf("registration over a log gap = %v, want an error naming the missing batch", err)
			}
		}},
		// A corrupt checkpoint whose log starts above version 0 — two PATCHes
		// checkpointed, a third only logged — is rebuilt at version 0 with
		// the log quarantined beside it, not left to fail every restart; the
		// next restart loads the rebuild clean.
		{"quarantined-checkpoint-with-log-tail", func(t *testing.T, r run, states [][]byte) {
			f := faultfs.New()
			reg, _ := r.open(t, f, 1)
			for i, b := range r.sc.batches[:3] {
				if i == 2 {
					reg.SetCheckpointEvery(lazy) // the third PATCH is only logged
				}
				if _, err := reg.ApplyDelta(crashID, b); err != nil {
					t.Fatal(err)
				}
			}
			if b, ok := f.DurableBytes(path); !ok || !f.CorruptByte(path, len(b)/2) {
				t.Fatal("no checkpoint to corrupt")
			}
			f.Restart()
			reg, ds := r.open(t, f, lazy)
			if ds.WasLoaded() || ds.Version() != 0 || reg.QuarantineCount() != 2 {
				t.Fatalf("loaded=%v version=%d quarantines=%d, want a rebuild at 0 and two quarantines", ds.WasLoaded(), ds.Version(), reg.QuarantineCount())
			}
			for _, p := range []string{store.QuarantinePath(path), store.QuarantinePath(logPath)} {
				if _, ok := f.DurableBytes(p); !ok {
					t.Errorf("%s was not kept", p)
				}
			}
			assertOracle(t, r.sc, ds, states[0], "the first restart")
			if reg, _ := r.restart(t, f, lazy, 0, states, "the second restart"); reg.QuarantineCount() != 0 || reg.PreprocessCount() != 0 {
				t.Fatalf("the second restart: %d quarantines, %d preprocesses; want a clean load", reg.QuarantineCount(), reg.PreprocessCount())
			}
		}},
		// A checkpoint corrupted under a log that starts at its version is
		// set aside verbatim as *.quarantine, Π is rebuilt from source rather
		// than failing for good, the surviving log — acknowledged batches of
		// this same data — is replayed on top, and the healed file serves the
		// next restart as a clean load.
		{"quarantine-rebuild-replays-surviving-log", func(t *testing.T, r run, states [][]byte) {
			f, v := faultfs.New(), uint64(len(r.sc.batches[0]))
			reg, _ := r.open(t, f, lazy)
			if _, err := reg.ApplyDelta(crashID, r.sc.batches[0]); err != nil {
				t.Fatal(err)
			}
			if b, ok := f.DurableBytes(path); !ok || !f.CorruptByte(path, len(b)/2) {
				t.Fatal("no checkpoint to corrupt")
			}
			damaged, _ := f.DurableBytes(path)
			f.Restart()
			reg, ds := r.open(t, f, lazy)
			if ds.WasLoaded() || ds.Version() != v || reg.ReplayCount() != 1 || reg.QuarantineCount() != 1 {
				t.Fatalf("loaded=%v version=%d replays=%d quarantines=%d, want a rebuild at %d, one replay, one quarantine",
					ds.WasLoaded(), ds.Version(), reg.ReplayCount(), reg.QuarantineCount(), v)
			}
			assertOracle(t, r.sc, ds, states[v], "the rebuild")
			if got, ok := f.DurableBytes(store.QuarantinePath(path)); !ok || !bytes.Equal(got, damaged) {
				t.Fatalf("%s does not hold the corrupt bytes verbatim (present=%v)", store.QuarantinePath(path), ok)
			}
			if reg, _ := r.restart(t, f, lazy, v, states, "post-heal restart"); reg.QuarantineCount() != 0 {
				t.Fatal("a clean restart reported a quarantine")
			}
		}},
	} {
		forEachRow(t, c.name+"/", c.run)
	}
}
