package store

// The graceful-degradation suite for the store layer: AnswerWithin must
// abandon answers at the deadline with a typed DeadlineError (never
// blocking the serving path behind a stalled scheme), AnswerBatchWithin
// must switch a degradable batch to the scheme's declared fallback when
// the budget runs low — with verdicts identical to the exact path — and
// the registry must quarantine a corrupt snapshot, rebuild from source,
// and replay the surviving delta log. The sticky-Prepare test is the
// regression pin for the heal path: a Prepare that failed transiently
// poisons the store only until RetryPrepare, never until restart.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"pitract/internal/cache"
	"pitract/internal/core"
	"pitract/internal/schemes"
)

// stallScheme answers correctly but blocks every Answer until gate is
// closed, so tests control exactly how long the exact path stalls.
func stallScheme(gate <-chan struct{}) *core.Scheme {
	return &core.Scheme{
		SchemeName: "test/stall",
		Preprocess: func(d []byte) ([]byte, error) { return append([]byte(nil), d...), nil },
		Answer: func(pd, q []byte) (bool, error) {
			<-gate
			return true, nil
		},
	}
}

// TestAnswerWithinNoDeadlineIsPlainAnswer pins the hot-path contract: a
// nil or non-cancellable context pays no guard goroutine — AnswerWithin
// degenerates to ds.Answer exactly.
func TestAnswerWithinNoDeadlineIsPlainAnswer(t *testing.T) {
	st := &Store{ID: "d", Scheme: schemes.PointSelectionScheme(),
		Prep: mustPreprocess(t, schemes.PointSelectionScheme(), schemes.RelationFromKeys([]int64{2, 4, 6}))}
	for _, ctx := range []context.Context{nil, context.Background()} {
		got, err := AnswerWithin(ctx, st, schemes.PointQuery(4))
		if err != nil || !got {
			t.Fatalf("AnswerWithin(%v) = (%v, %v), want (true, nil)", ctx, got, err)
		}
		got, err = AnswerWithin(ctx, st, schemes.PointQuery(5))
		if err != nil || got {
			t.Fatalf("AnswerWithin(%v) = (%v, %v), want (false, nil)", ctx, got, err)
		}
	}
}

func mustPreprocess(t *testing.T, s *core.Scheme, d []byte) []byte {
	t.Helper()
	pd, err := s.Preprocess(d)
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	return pd
}

// TestAnswerWithinExpiredUpfront pins the cheap path: an already-expired
// context is refused as a typed DeadlineError before any probe runs,
// still unwrapping to the context cause.
func TestAnswerWithinExpiredUpfront(t *testing.T) {
	gate := make(chan struct{}) // never opened: any probe would hang
	st := &Store{ID: "d", Scheme: stallScheme(gate), Prep: []byte{1}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AnswerWithin(ctx, st, []byte("q"))
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("expired answer returned %v, want a DeadlineError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("DeadlineError %v does not wrap context.Canceled", err)
	}
	if _, _, berr := AnswerBatchWithin(ctx, st, [][]byte{[]byte("q")}, 1); !errors.As(berr, &de) {
		t.Fatalf("expired batch returned %v, want a DeadlineError", berr)
	}
}

// TestAnswerWithinAbandonsStalledAnswer pins the hard guard: a scheme
// whose Answer stalls indefinitely does not hold the serving path — the
// worker is abandoned at the deadline, the caller gets a DeadlineError
// promptly, and the zombie's late result is dropped.
func TestAnswerWithinAbandonsStalledAnswer(t *testing.T) {
	gate := make(chan struct{})
	st := &Store{ID: "d", Scheme: stallScheme(gate), Prep: []byte{1}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err := AnswerWithin(ctx, st, []byte("q"))
	elapsed := time.Since(start)
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("stalled answer returned %v, want a DeadlineError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DeadlineError %v does not wrap context.DeadlineExceeded", err)
	}
	if de.Op != "answer" || de.ID != "d" {
		t.Fatalf("DeadlineError carries (op %q, id %q), want (answer, d)", de.Op, de.ID)
	}
	// The caller must come back at the deadline, not at the stall's end.
	// 2s is a generous ceiling for a 30ms budget on a loaded CI machine.
	if elapsed > 2*time.Second {
		t.Fatalf("AnswerWithin took %v to abandon a stalled answer under a 30ms budget", elapsed)
	}
	close(gate) // let the zombie drain
}

// verdictOf is the toy language the degradable scheme decides: a query
// is in the language iff its first byte is even.
func verdictOf(q []byte) bool { return len(q) > 0 && q[0]%2 == 0 }

// TestAnswerBatchWithinDegradesMidBatch pins the degraded-answering
// contract end to end: a batch whose exact path eats most of the budget
// switches to the scheme's declared fallback for the remainder, the
// reported degraded count matches the fallback probes, and — the part
// that makes degradation admissible at all — every verdict is identical
// to the exact path's. The cache wrapper is the same seam: its miss
// sub-batch receives the deadline and the mode like any other batch.
func TestAnswerBatchWithinDegradesMidBatch(t *testing.T) {
	for name, front := range map[string]func(Dataset) Dataset{
		"plain":  func(ds Dataset) Dataset { return ds },
		"cached": func(ds Dataset) Dataset { return NewCachedDataset(ds, cache.New(1<<20)) },
	} {
		t.Run(name, func(t *testing.T) {
			var exactCalls, fbCalls atomic.Int64
			sch := &core.Scheme{
				SchemeName: "test/degradable",
				Preprocess: func(d []byte) ([]byte, error) { return append([]byte(nil), d...), nil },
				Answer: func(pd, q []byte) (bool, error) {
					// The first exact probe eats ~80% of the 800ms budget, so the
					// degradable batch must finish the rest through the fallback.
					if exactCalls.Add(1) == 1 {
						time.Sleep(650 * time.Millisecond)
					}
					return verdictOf(q), nil
				},
				PrepareFallback: func(pd []byte) (core.Answerer, error) {
					return core.AnswererFunc(func(q []byte) (bool, error) {
						fbCalls.Add(1)
						return verdictOf(q), nil
					}), nil
				},
			}
			ds := front(&Store{ID: "d", Scheme: sch, Prep: []byte{1}})
			queries := [][]byte{{2}, {3}, {4}, {5}, {6}, {7}}

			ctx, cancel := context.WithTimeout(context.Background(), 800*time.Millisecond)
			defer cancel()
			answers, degraded, err := AnswerBatchWithin(ctx, ds, queries, 1)
			if err != nil {
				t.Fatalf("degradable batch failed: %v", err)
			}
			if len(answers) != len(queries) {
				t.Fatalf("batch returned %d answers for %d queries", len(answers), len(queries))
			}
			for i, q := range queries {
				if answers[i] != verdictOf(q) {
					t.Fatalf("query %d: degraded batch says %v, exact verdict is %v — degradation changed an answer", i, answers[i], verdictOf(q))
				}
			}
			if degraded < 1 {
				t.Fatalf("degraded count %d after the exact path ate the budget, want >= 1", degraded)
			}
			if int64(degraded) != fbCalls.Load() {
				t.Fatalf("degraded count %d but the fallback answered %d probes", degraded, fbCalls.Load())
			}

			// Without a deadline the same store takes the exact path only.
			fbBefore := fbCalls.Load()
			answers, degraded, err = AnswerBatchWithin(context.Background(), ds, [][]byte{{8}, {9}}, 1)
			if err != nil || degraded != 0 || !answers[0] || answers[1] {
				t.Fatalf("deadline-free batch = (%v, %d, %v), want exact ([true false], 0, nil)", answers, degraded, err)
			}
			if fbCalls.Load() != fbBefore {
				t.Fatal("deadline-free batch touched the fallback answerer")
			}
		})
	}
}

// TestStickyPrepareHealsWithoutReRegister is the regression pin for the
// sticky-Prepare bug: a transient Prepare failure used to poison the
// store until process restart. The store must (a) surface the failure as
// a typed *PrepareError, (b) keep it sticky — no Prepare retry storm per
// query — and (c) heal through RetryPrepare on the SAME registered
// dataset: correct answers afterwards, one catalog entry, one
// Preprocess, no re-register.
func TestStickyPrepareHealsWithoutReRegister(t *testing.T) {
	var prepCalls atomic.Int64
	sch := &core.Scheme{
		SchemeName: "test/flaky-prepare",
		Preprocess: func(d []byte) ([]byte, error) { return append([]byte(nil), d...), nil },
		Answer:     func(pd, q []byte) (bool, error) { return len(q) > 0, nil },
		PrepareAnswerer: func(pd []byte) (core.Answerer, error) {
			if prepCalls.Add(1) == 1 {
				return nil, fmt.Errorf("injected decode fault")
			}
			return core.AnswererFunc(func(q []byte) (bool, error) { return len(q) > 0, nil }), nil
		},
	}
	reg := NewRegistry("")
	st, err := reg.Register("d", sch, []byte{1})
	if err != nil {
		t.Fatalf("registration must survive a transient Prepare failure, got %v", err)
	}

	_, aerr := st.Answer([]byte("q"))
	var pe *PrepareError
	if !errors.As(aerr, &pe) {
		t.Fatalf("answer over a failed Prepare returned %v, want a PrepareError", aerr)
	}
	_, aerr2 := st.Answer([]byte("q"))
	if aerr2 == nil || aerr2.Error() != aerr.Error() {
		t.Fatalf("second answer returned %v, want the identical sticky error %v", aerr2, aerr)
	}
	if n := prepCalls.Load(); n != 1 {
		t.Fatalf("Prepare ran %d times across sticky answers, want 1 (no retry storm)", n)
	}

	// The breaker's half-open probe path: retry the Prepare, then answer.
	if err := st.RetryPrepare(); err != nil {
		t.Fatalf("RetryPrepare on a healed scheme: %v", err)
	}
	got, err := st.Answer([]byte("q"))
	if err != nil || !got {
		t.Fatalf("healed answer = (%v, %v), want (true, nil)", got, err)
	}

	// Healing happened in place: same dataset, no re-register.
	cur, ok := reg.Get("d")
	if !ok || cur != st {
		t.Fatal("healing replaced the registered dataset; the heal must be in place")
	}
	if n := reg.PreprocessCount(); n != 1 {
		t.Fatalf("heal re-preprocessed: PreprocessCount %d, want 1", n)
	}
	if reg.Len() != 1 {
		t.Fatalf("catalog has %d entries after heal, want 1", reg.Len())
	}
}

// TestQuarantineRebuildReplaysSurvivingLog pins the quarantine-and-heal
// protocol end to end on a real directory: a snapshot corrupted on disk
// is renamed aside as *.quarantine (kept for forensics), the dataset is
// rebuilt from source rather than erroring permanently, the surviving
// write-ahead delta log — acknowledged batches for this same data — is
// replayed on top, and the healed snapshot serves the next restart as a
// clean load.
func TestQuarantineRebuildReplaysSurvivingLog(t *testing.T) {
	dir := t.TempDir()
	data := schemes.RelationFromKeys([]int64{2, 4, 6})

	reg := NewRegistry(dir)
	reg.SetCheckpointEvery(100) // keep the delta log alive across the corruption
	if _, err := reg.Register("d", schemes.PointSelectionScheme(), data); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.ApplyDelta("d", [][]byte{schemes.KeysDelta([]int64{9})}); err != nil {
		t.Fatal(err)
	}

	// Corrupt one byte of the snapshot body — the CRC must catch it.
	path := SnapshotPath(dir, "d")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart: the corrupt artifact is quarantined, Π rebuilt from source,
	// and the log replayed — the acknowledged delta is not lost.
	reg2 := NewRegistry(dir)
	reg2.SetCheckpointEvery(100)
	st2, err := reg2.Register("d", schemes.PointSelectionScheme(), data)
	if err != nil {
		t.Fatalf("re-register over a corrupt snapshot: %v", err)
	}
	if st2.WasLoaded() {
		t.Fatal("dataset claims to be snapshot-loaded over a corrupt snapshot")
	}
	if v := st2.Version(); v != 1 {
		t.Fatalf("rebuilt dataset at version %d, want 1 (log replayed)", v)
	}
	if n := reg2.ReplayCount(); n != 1 {
		t.Fatalf("ReplayCount %d after rebuild, want 1", n)
	}
	if n := reg2.QuarantineCount(); n != 1 {
		t.Fatalf("QuarantineCount %d after rebuild, want 1", n)
	}
	for _, tc := range []struct {
		key  int64
		want bool
	}{{2, true}, {9, true}, {3, false}} {
		got, err := st2.Answer(schemes.PointQuery(tc.key))
		if err != nil || got != tc.want {
			t.Fatalf("healed dataset: key %d = (%v, %v), want (%v, nil)", tc.key, got, err, tc.want)
		}
	}

	// The corrupt bytes survive for forensics under *.quarantine.
	qpath := QuarantinePath(path)
	qraw, err := os.ReadFile(qpath)
	if err != nil {
		t.Fatalf("quarantined artifact missing: %v", err)
	}
	if string(qraw) != string(raw) {
		t.Fatal("quarantined artifact is not the corrupt bytes verbatim")
	}

	// The heal rewrote a valid snapshot: the next restart loads cleanly at
	// the replayed version.
	reg3 := NewRegistry(dir)
	st3, err := reg3.Register("d", schemes.PointSelectionScheme(), data)
	if err != nil {
		t.Fatal(err)
	}
	if !st3.WasLoaded() {
		t.Fatal("post-heal restart did not load the healed snapshot")
	}
	if v := st3.Version(); v != 1 {
		t.Fatalf("post-heal restart at version %d, want 1", v)
	}
	if got, err := st3.Answer(schemes.PointQuery(9)); err != nil || !got {
		t.Fatalf("post-heal restart: key 9 = (%v, %v), want (true, nil)", got, err)
	}
	if reg3.QuarantineCount() != 0 {
		t.Fatal("clean restart reported a quarantine")
	}
}
