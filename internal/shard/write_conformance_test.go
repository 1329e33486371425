package shard

// One conformance table for the write side, the twin of
// conformance_test.go: every dataset kind — a plain Store, a ShardedStore
// answering through the router, a ShardedStore answering through a
// scheme's own Prepare view — runs the same durability protocol
// (store.ApplyDeltas), so each protocol outcome below must hold for every
// kind: what an acknowledged batch leaves, what each class of refusal
// leaves untouched, and what a restart resumes from.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"pitract/internal/core"
	"pitract/internal/obs"
	"pitract/internal/store"
	"pitract/internal/store/faultfs"
)

// writeKind is one way of serving (and persisting) a crash scenario's
// dataset: how to register it, and the Π its Prepare can be made to refuse.
// Every kind persists the one file at store.DatasetPath (fileArtifacts).
type writeKind struct {
	name     string
	cs       shardCrashScheme
	register func(reg *store.Registry) (store.Dataset, error)
	faults   []prepareFault
}

// prepareFaults makes a scheme's Prepare refuse what no CRC or layout check
// catches: while refuse is positive each call fails and counts it down, and
// while hide is positive each prepared answerer is wrapped so that only its
// Answer shows — a reachability member then has no local-reach form, so the
// summary view over it cannot be built.
type prepareFaults struct{ refuse, hide atomic.Int32 }

var errRefused = errors.New("injected: Π refused by Prepare")

func (pf *prepareFaults) scheme(base *core.Scheme) *core.Scheme {
	sch := *base
	sch.Prepare = func(pd []byte) (core.Answerer, error) {
		if pf.refuse.Add(-1) >= 0 {
			return nil, errRefused
		}
		a, err := base.Prepare(pd)
		if err == nil && pf.hide.Add(-1) >= 0 {
			a = core.AnswererFunc(a.Answer)
		}
		return a, err
	}
	return &sch
}

// prepareFault names one Π of a kind — its one Π, a member, the view — and
// arms the fault that makes its next Prepare fail.
type prepareFault struct {
	name string
	arm  func()
}

// fileArtifacts names the places damage can land in a checkpoint, the one
// file of every kind — which is also what a restart quarantines, damage and
// all: a byte of the manifest's own fields (its scheme name), and a byte in
// the middle of the last member's snapshot, which the file ends with, found
// by decoding the file.
var fileArtifacts = []struct {
	name   string
	offset func(t *testing.T, file []byte) int
}{
	{"manifest", func(*testing.T, []byte) int { return len(manifestMagic) + 4 + 1 }},
	{"member", func(t *testing.T, file []byte) int {
		m, err := store.DecodeManifest(file)
		if err != nil {
			t.Fatal(err)
		}
		last := m.Members[len(m.Members)-1]
		if !bytes.HasSuffix(file, last) || len(last) < 2 {
			t.Fatalf("the file does not end with its last member (%d bytes)", len(last))
		}
		return len(file) - len(last)/2
	}},
}

// writeKinds are the three kinds of the write-side tables, over the crash
// suites' scenarios (mixed insert/delete batches and their probes).
func writeKinds() []writeKind {
	scenarios := shardCrashSchemes()
	point, reach := scenarios[0], scenarios[3]
	faults := []*prepareFaults{{}, {}, {}}
	refuse := func(name string, pf *prepareFaults) prepareFault {
		return prepareFault{name, func() { pf.refuse.Store(1) }}
	}
	sharded := func(cs shardCrashScheme, p Partitioner, pf *prepareFaults) func(*store.Registry) (store.Dataset, error) {
		return func(reg *store.Registry) (store.Dataset, error) {
			return RegisterSharded(reg, shardCrashID, pf.scheme(cs.inc), p, shardCrashN, cs.data)
		}
	}
	return []writeKind{
		{"plain", point, func(reg *store.Registry) (store.Dataset, error) {
			return reg.Register(shardCrashID, faults[0].scheme(point.inc), point.data)
		}, []prepareFault{refuse("pi", faults[0])}},
		{"routed-sharded", point, sharded(point, HashPartitioner{}, faults[1]),
			[]prepareFault{refuse("member", faults[1])}},
		{"view-sharded", reach, sharded(reach, RangePartitioner{}, faults[2]),
			[]prepareFault{refuse("member", faults[2]), {"view", func() { faults[2].hide.Store(1) }}}},
	}
}

// open registers the kind's dataset on a fresh registry over f.
func (k writeKind) open(t *testing.T, f *faultfs.FS, cadence int) (*store.Registry, store.Dataset) {
	t.Helper()
	reg := store.NewRegistryMedium(&store.Medium{Dir: shardCrashDir, FS: f, CheckpointEvery: cadence})
	ds, err := k.register(reg)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	return reg, ds
}

// durableImage renders every durable file under the data directory, so a
// refused batch can be shown to have left the medium byte-identical.
func durableImage(t *testing.T, f *faultfs.FS) string {
	t.Helper()
	names, err := f.ReadDirNames(shardCrashDir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, n := range names {
		if bytes, ok := f.DurableBytes(shardCrashDir + "/" + n); ok {
			fmt.Fprintf(&b, "%s=%x\n", n, bytes)
		}
	}
	return b.String()
}

// writesSoFar counts the medium's executed Write calls — the budget
// FailAfterWrites counts against.
func writesSoFar(f *faultfs.FS) int {
	n := 0
	for _, e := range f.Trace() {
		if strings.HasPrefix(e, "write ") {
			n++
		}
	}
	return n
}

// expiringCtx stays live for a fixed number of Err checks and reads as
// cancelled from then on: a budget that runs out between two deltas,
// without a clock.
type expiringCtx struct {
	context.Context
	checks atomic.Int32
}

func (c *expiringCtx) Err() error {
	if c.checks.Add(-1) >= 0 {
		return nil
	}
	return context.Canceled
}

func TestWritePathConformance(t *testing.T) {
	checkpointFails := obs.Default.Counter("pitract_checkpoint_failures_total", "")
	for _, k := range writeKinds() {
		t.Run(k.name, func(t *testing.T) {
			states := shardOracleStates(t, k.cs)
			b0, b1 := k.cs.batches[0], k.cs.batches[1]
			v1 := uint64(len(b0))
			v2 := v1 + uint64(len(b1))
			logPath := store.LogPath(shardCrashDir, shardCrashID)

			// untouched demands that a refused batch changed nothing: not the
			// version, not a verdict, not a durable byte.
			untouched := func(t *testing.T, f *faultfs.FS, ds store.Dataset, version uint64, image string) {
				t.Helper()
				if got := ds.Version(); got != version {
					t.Fatalf("refused batch moved the version to %d, want %d", got, version)
				}
				assertShardOracle(t, k.cs, ds, states[version], "after refusal")
				if got := durableImage(t, f); got != image {
					t.Fatalf("refused batch changed the durable image:\n got %s\nwant %s", got, image)
				}
			}

			t.Run("acknowledged", func(t *testing.T) {
				reg, ds := k.open(t, faultfs.New(), 1)
				v, err := reg.ApplyDelta(shardCrashID, b0)
				if err != nil || v != v1 || ds.Version() != v1 {
					t.Fatalf("batch acknowledged (%d, %v), dataset at %d; want version %d", v, err, ds.Version(), v1)
				}
				assertShardOracle(t, k.cs, ds, states[v1], "acknowledged")
			})

			t.Run("malformed-delta", func(t *testing.T) {
				f := faultfs.New()
				reg, ds := k.open(t, f, 1)
				image := durableImage(t, f)
				batch := [][]byte{b0[0], {0xff, 0xff, 0xff}}
				// The reference bytes are a plain in-memory store's of the same
				// scheme: every kind stages through the one Store.Stage.
				plain, err := store.NewRegistry("").Register("d", k.cs.inc, k.cs.data)
				if err != nil {
					t.Fatal(err)
				}
				_, ref := store.ApplyDeltas(context.Background(), plain, batch, nil)
				if ref == nil || !strings.HasPrefix(ref.Error(), "store: delta 1: ") || !strings.HasSuffix(ref.Error(), " (nothing applied)") {
					t.Fatalf("reference refusal %v does not name delta 1 with nothing applied", ref)
				}
				want := fmt.Sprintf("store: apply delta to %q: %v", shardCrashID, ref)
				_, err = reg.ApplyDelta(shardCrashID, batch)
				if err == nil || err.Error() != want {
					t.Fatalf("malformed delta at index 1:\n got %v\nwant %s", err, want)
				}
				var be *store.BudgetError
				var pe *store.PersistError
				if errors.As(err, &be) || errors.As(err, &pe) {
					t.Fatalf("malformed delta classified as a server fault: %v", err)
				}
				untouched(t, f, ds, 0, image)
			})

			// A maintained Π — the plain one, a touched member, or the view
			// rebuilt over it — that Prepare refuses is the request's
			// conflict (the server's 409), with nothing applied. The second
			// batch touches a member of every kind.
			for _, pf := range k.faults {
				t.Run("prepare-refuses-maintained-"+pf.name, func(t *testing.T) {
					f := faultfs.New()
					reg, ds := k.open(t, f, 1)
					image := durableImage(t, f)
					pf.arm()
					_, err := reg.ApplyDelta(shardCrashID, b1)
					var be *store.BudgetError
					var pe *store.PersistError
					if err == nil || !strings.HasSuffix(err.Error(), "(nothing applied)") || errors.As(err, &be) || errors.As(err, &pe) {
						t.Fatalf("PATCH whose maintained Π Prepare refuses = %v, want a conflict with nothing applied", err)
					}
					untouched(t, f, ds, 0, image)
				})
			}

			// A fresh build whose Π Prepare refuses fails the registration
			// as a conflict: no catalog entry, no file.
			for _, pf := range k.faults {
				t.Run("prepare-refuses-registration-"+pf.name, func(t *testing.T) {
					f := faultfs.New()
					reg := store.NewRegistryMedium(&store.Medium{Dir: shardCrashDir, FS: f, CheckpointEvery: 1})
					pf.arm()
					_, err := k.register(reg)
					var pe *store.PersistError
					if err == nil || errors.As(err, &pe) {
						t.Fatalf("registration whose Π Prepare refuses = %v, want a conflict", err)
					}
					if _, ok := reg.GetDataset(shardCrashID); ok || reg.Len() != 0 {
						t.Fatal("a refused registration left a catalog entry")
					}
					for _, path := range []string{store.DatasetPath(shardCrashDir, shardCrashID), logPath} {
						if _, ok := f.DurableBytes(path); ok {
							t.Fatalf("a refused registration wrote %s", path)
						}
					}
				})
			}

			t.Run("budget-expires-between-deltas", func(t *testing.T) {
				f := faultfs.New()
				reg, ds := k.open(t, f, 1)
				image := durableImage(t, f)
				ctx := &expiringCtx{Context: context.Background()}
				ctx.checks.Store(1) // live before delta 0, expired before delta 1
				_, err := reg.ApplyDeltaContext(ctx, shardCrashID, [][]byte{b0[0], b1[0]})
				var be *store.BudgetError
				if !errors.As(err, &be) || !errors.Is(err, context.Canceled) {
					t.Fatalf("expired batch = %v, want a BudgetError wrapping context.Canceled", err)
				}
				untouched(t, f, ds, 0, image)
			})

			t.Run("log-append-fails", func(t *testing.T) {
				f := faultfs.New()
				reg, ds := k.open(t, f, 1)
				image := durableImage(t, f)
				f.FailAfterWrites(writesSoFar(f))
				_, err := reg.ApplyDelta(shardCrashID, b0)
				var pe *store.PersistError
				if !errors.As(err, &pe) {
					t.Fatalf("failed log append = %v, want a PersistError", err)
				}
				untouched(t, f, ds, 0, image)
				f.FailAfterWrites(-1)
				if v, err := reg.ApplyDelta(shardCrashID, b0); err != nil || v != v1 {
					t.Fatalf("PATCH after the fault cleared = (%d, %v), want version %d", v, err, v1)
				}
				assertShardOracle(t, k.cs, ds, states[v1], "after retry")
			})

			t.Run("checkpoint-fails-after-durable-append", func(t *testing.T) {
				f := faultfs.New()
				reg, ds := k.open(t, f, 1)
				fails := checkpointFails.Value()
				f.FailAfterWrites(writesSoFar(f) + 1) // the append lands, the checkpoint's first write fails
				if v, err := reg.ApplyDelta(shardCrashID, b0); err != nil || v != v1 {
					t.Fatalf("durable append + failed checkpoint = (%d, %v), want acknowledged version %d", v, err, v1)
				}
				if got := checkpointFails.Value() - fails; got != 1 {
					t.Fatalf("pitract_checkpoint_failures_total moved by %d, want 1", got)
				}
				assertShardOracle(t, k.cs, ds, states[v1], "acknowledged over a failed checkpoint")
				if _, ok := f.DurableBytes(logPath); !ok {
					t.Fatal("failed checkpoint left no delta log: the acknowledged batch is nowhere durable")
				}
				f.FailAfterWrites(-1)
				if v, err := reg.ApplyDelta(shardCrashID, b1); err != nil || v != v2 {
					t.Fatalf("next batch = (%d, %v), want version %d", v, err, v2)
				}
				if _, ok := f.DurableBytes(logPath); ok {
					t.Fatal("next batch's checkpoint did not truncate the delta log")
				}
				// The retried checkpoint holds both batches: a restart loads
				// it and replays nothing.
				f.Restart()
				reg2, ds2 := k.open(t, f, 1)
				if !ds2.WasLoaded() || ds2.Version() != v2 || reg2.ReplayCount() != 0 {
					t.Fatalf("restart: loaded=%v version=%d replays=%d, want true, %d, 0",
						ds2.WasLoaded(), ds2.Version(), reg2.ReplayCount(), v2)
				}
				assertShardOracle(t, k.cs, ds2, states[v2], "restart over the retried checkpoint")
			})

			t.Run("restart-replays-the-log", func(t *testing.T) {
				f := faultfs.New()
				reg, _ := k.open(t, f, 100)
				for _, b := range [][][]byte{b0, b1} {
					if _, err := reg.ApplyDelta(shardCrashID, b); err != nil {
						t.Fatal(err)
					}
				}
				f.Restart()
				reg2, ds2 := k.open(t, f, 100)
				if !ds2.WasLoaded() || ds2.Version() != v2 || reg2.ReplayCount() != 2 {
					t.Fatalf("restart: loaded=%v version=%d replays=%d, want true, %d, 2",
						ds2.WasLoaded(), ds2.Version(), reg2.ReplayCount(), v2)
				}
				assertShardOracle(t, k.cs, ds2, states[v2], "restart over the log")
			})
		})
	}
}
