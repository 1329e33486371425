package store

// The answer seam. Every dataset kind — a plain Store, the cache wrapper,
// internal/shard's ShardedStore — answers through exactly two methods,
// Dataset.Ask and Dataset.AskBatch, which take the caller's context and the
// answering Mode as arguments and return the verdict(s) together with the
// maintenance version they were computed at. Cancellation is cooperative
// (the context is checked before every probe); AskWithin / AskBatchWithin
// add the hard deadline guard on top, abandoning the worker goroutine at
// the deadline — the result is dropped and the HTTP layer answers 504
// immediately, so an expired request is never left holding an envelope
// slot. AnswerWithin / AnswerBatchWithin are the Exact-mode faces that
// return bare verdicts.

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Mode selects which of a dataset's answerers decides a query.
type Mode uint8

const (
	// Exact answers through the scheme's prepared form. A batch under a
	// deadline may still finish on the declared fallback once the budget
	// runs low (Verdicts.Degraded counts those queries).
	Exact Mode = iota
	// Degraded answers through the scheme's declared fallback answerer
	// (core.Scheme.PrepareFallback). Verdicts are exact — the fallback
	// trades serving cost, not correctness — and bypass the answer cache
	// in both directions, which keeps the cache's hit accounting an
	// exact-path signal.
	Degraded
)

// Verdict is one answer and the state it was computed in.
type Verdict struct {
	Answer bool
	// Version is the maintenance version of the Π that decided Answer,
	// read in the same critical section as the answerer.
	Version uint64
	// Degraded reports that the fallback answerer decided.
	Degraded bool
}

// Verdicts is one batch's answers, in query order, all decided against the
// single Π at Version.
type Verdicts struct {
	Answers []bool
	Version uint64
	// Degraded counts the queries the fallback answerer decided.
	Degraded int
}

// ErrNoFallback reports a Degraded ask of a dataset whose scheme declares
// no fallback answerer (see Dataset.CanDegrade).
var ErrNoFallback = errors.New("store: dataset declares no degraded fallback")

// DeadlineError reports a query or batch that outlived its budget. It
// wraps context.DeadlineExceeded (or context.Canceled), so errors.Is
// still sees the context cause.
type DeadlineError struct {
	Op  string // "answer" or "batch"
	ID  string // dataset id
	Err error
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("store: %s %q: query budget exceeded (%v)", e.Op, e.ID, e.Err)
}

func (e *DeadlineError) Unwrap() error { return e.Err }

// deadlineError classifies err: a context-caused failure under an armed
// ctx becomes a typed DeadlineError; anything else passes through.
func deadlineError(op, id string, ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if cerr := ctx.Err(); cerr != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
		return &DeadlineError{Op: op, ID: id, Err: cerr}
	}
	return err
}

// guard runs ask on its own goroutine and abandons it at the deadline:
// the zombie finishes (and is cancelled cooperatively at its next
// context check) but its result is dropped.
func guard[T any](ctx context.Context, op, id string, ask func() (T, error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, &DeadlineError{Op: op, ID: id, Err: err}
	}
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := ask()
		ch <- result{v, err}
	}()
	select {
	case res := <-ch:
		return res.v, deadlineError(op, id, ctx, res.err)
	case <-ctx.Done():
		return zero, &DeadlineError{Op: op, ID: id, Err: ctx.Err()}
	}
}

// unarmed reports whether ctx can never expire — the zero-overhead path:
// no guard goroutine, no channel, the dataset is asked directly.
func unarmed(ctx context.Context) bool { return ctx == nil || ctx.Done() == nil }

// AskWithin asks one query within ctx's deadline. Without a deadline (or
// cancellation) it is exactly ds.Ask.
func AskWithin(ctx context.Context, ds Dataset, q []byte, mode Mode) (Verdict, error) {
	if unarmed(ctx) {
		return ds.Ask(context.Background(), q, mode)
	}
	return guard(ctx, "answer", ds.DatasetID(), func() (Verdict, error) { return ds.Ask(ctx, q, mode) })
}

// AskBatchWithin asks a batch within ctx's deadline. Without a deadline it
// is exactly ds.AskBatch.
func AskBatchWithin(ctx context.Context, ds Dataset, queries [][]byte, parallelism int, mode Mode) (Verdicts, error) {
	if unarmed(ctx) {
		return ds.AskBatch(context.Background(), queries, parallelism, mode)
	}
	return guard(ctx, "batch", ds.DatasetID(), func() (Verdicts, error) {
		return ds.AskBatch(ctx, queries, parallelism, mode)
	})
}

// AnswerWithin answers one query within ctx's deadline. Without a
// deadline (or cancellation) it is exactly ds.Answer.
func AnswerWithin(ctx context.Context, ds Dataset, q []byte) (bool, error) {
	v, err := AskWithin(ctx, ds, q, Exact)
	return v.Answer, err
}

// AnswerBatchWithin answers a batch within ctx's deadline. Datasets with
// a declared fallback switch to it once the remaining budget runs low;
// degraded reports how many queries took the fallback. Without a deadline
// it is exactly ds.AnswerBatch.
func AnswerBatchWithin(ctx context.Context, ds Dataset, queries [][]byte, parallelism int) (answers []bool, degraded int, err error) {
	vs, err := AskBatchWithin(ctx, ds, queries, parallelism, Exact)
	return vs.Answers, vs.Degraded, err
}

// degradeThresholdDiv is the fraction of the remaining budget at which a
// degradable batch switches from the exact path to the fallback.
const degradeThresholdDiv = 4

// budgetLow reports whether less than 1/degradeThresholdDiv of the
// budget measured from start remains before deadline.
func budgetLow(start, deadline time.Time) bool {
	total := deadline.Sub(start)
	if total <= 0 {
		return true
	}
	return time.Until(deadline) < total/degradeThresholdDiv
}
