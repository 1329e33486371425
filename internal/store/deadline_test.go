package store

// The graceful-degradation suite for the store layer: AnswerWithin types
// an ask that outlives its deadline as a DeadlineError, and leaves no probe
// of it running. (Quarantining a corrupt
// file, rebuilding from source and replaying the surviving delta log is a
// row of internal/shard's TestCrashRecovery, in every layout.)

import (
	"context"
	"errors"
	"sync/atomic"
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
// nil or non-cancellable context degenerates to ds.Answer exactly.
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

// TestAnswerWithinTypesLateVerdict pins the deadline on the caller's
// goroutine: a probe that outlives the budget is not abandoned — it has
// finished when AnswerWithin or AnswerBatchWithin returns — and its
// verdict, finished after ctx expired, comes back as a DeadlineError that
// names the op and dataset and unwraps to context.DeadlineExceeded.
func TestAnswerWithinTypesLateVerdict(t *testing.T) {
	var running atomic.Int64
	st := &Store{ID: "d", Scheme: &core.Scheme{
		SchemeName: "test/late",
		Preprocess: func(d []byte) ([]byte, error) { return append([]byte(nil), d...), nil },
		Prepare: core.ProbeInPlace(func(pd, q []byte) (bool, error) {
			running.Add(1)
			defer running.Add(-1)
			time.Sleep(40 * time.Millisecond)
			return true, nil
		}),
	}, Prep: []byte{1}}
	for _, tc := range []struct {
		op  string
		ask func(ctx context.Context) error
	}{
		{"answer", func(ctx context.Context) error { _, err := AnswerWithin(ctx, st, []byte("q")); return err }},
		{"batch", func(ctx context.Context) error {
			_, _, err := AnswerBatchWithin(ctx, st, [][]byte{[]byte("q"), []byte("r"), []byte("s")}, 2)
			return err
		}},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		err := tc.ask(ctx)
		cancel()
		if n := running.Load(); n != 0 {
			t.Fatalf("%s: %d probes still running after the DeadlineError returned", tc.op, n)
		}
		var de *DeadlineError
		if !errors.As(err, &de) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: late verdict returned %v, want a DeadlineError wrapping context.DeadlineExceeded", tc.op, err)
		}
		if de.Op != tc.op || de.ID != "d" {
			t.Fatalf("DeadlineError carries (op %q, id %q), want (%s, d)", de.Op, de.ID, tc.op)
		}
	}
}
