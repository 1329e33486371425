package store

// The graceful-degradation suite for the store layer: AnswerWithin must
// abandon answers at the deadline with a typed DeadlineError, never
// blocking the serving path behind a stalled scheme. (Quarantining a corrupt
// file, rebuilding from source and replaying the surviving delta log is a
// row of internal/shard's TestCrashRecovery, in every layout.)

import (
	"context"
	"errors"
	"testing"
	"time"

	"pitract/internal/core"
	"pitract/internal/schemes"
)

// stallScheme answers correctly but blocks every Answer until gate is
// closed, so tests control exactly how long the exact path stalls.
func stallScheme(gate <-chan struct{}) *core.Scheme {
	return &core.Scheme{
		SchemeName: "test/stall",
		Preprocess: func(d []byte) ([]byte, error) { return append([]byte(nil), d...), nil },
		Prepare: core.ProbeInPlace(func(pd, q []byte) (bool, error) {
			<-gate
			return true, nil
		}),
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

// TestAskBatchOrAbandonReportsAbandonment pins the one signal a caller that
// recycles its queries' memory reads: abandoned is true only when the guard
// returned while the batch was still being answered — not for a batch
// answered in time, armed or not, nor for one refused before it started.
func TestAskBatchOrAbandonReportsAbandonment(t *testing.T) {
	gate := make(chan struct{})
	st := &Store{ID: "d", Scheme: stallScheme(gate), Prep: []byte{1}}
	queries := [][]byte{[]byte("q"), []byte("r")}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if _, abandoned, err := AskBatchOrAbandon(expired, st, queries, 2); abandoned || err == nil {
		t.Fatalf("expired upfront: abandoned %v, err %v; want false and a DeadlineError", abandoned, err)
	}

	stalled, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, abandoned, err := AskBatchOrAbandon(stalled, st, queries, 2)
	var de *DeadlineError
	if !abandoned || !errors.As(err, &de) {
		t.Fatalf("stalled batch: abandoned %v, err %v; want true and a DeadlineError", abandoned, err)
	}
	close(gate) // the zombie drains; every later ask answers at once

	armed, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, ctx := range []context.Context{context.Background(), armed} {
		vs, abandoned, err := AskBatchOrAbandon(ctx, st, queries, 2)
		if abandoned || err != nil || len(vs.Answers) != len(queries) {
			t.Fatalf("answered batch: abandoned %v, err %v, %d answers", abandoned, err, len(vs.Answers))
		}
	}
}
