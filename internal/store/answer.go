package store

// The answer seam. Every dataset — a Store, plain or sharded, and the cache
// wrapper — answers through exactly two methods, Dataset.Ask and
// Dataset.AskBatch, which take the caller's context as an argument and return the verdict(s) together with the maintenance version
// they were computed at. Cancellation is cooperative (the context is
// checked before every probe); AskWithin / AskBatchWithin add the hard
// deadline guard on top, abandoning the worker goroutine at the deadline —
// the result is dropped and the HTTP layer answers 504 immediately, so an
// expired request is never left holding an envelope slot. AnswerWithin /
// AnswerBatchWithin are the faces that return bare verdicts.

import (
	"context"
	"errors"
	"fmt"
)

// Verdict is one answer and the state it was computed in.
type Verdict struct {
	Answer bool
	// Version is the maintenance version of the Π that decided Answer,
	// read in the same critical section as the answerer.
	Version uint64
}

// Verdicts is one batch's answers, in query order, all decided against the
// single Π at Version.
type Verdicts struct {
	Answers []bool
	Version uint64
}

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
// context check) but its result is dropped. abandoned reports exactly that
// case — guard returned while ask was still running — and is the one
// signal that ask's arguments are still being read.
func guard[T any](ctx context.Context, op, id string, ask func() (T, error)) (v T, abandoned bool, err error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, false, &DeadlineError{Op: op, ID: id, Err: err}
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
		return res.v, false, deadlineError(op, id, ctx, res.err)
	case <-ctx.Done():
		return zero, true, &DeadlineError{Op: op, ID: id, Err: ctx.Err()}
	}
}

// unarmed reports whether ctx can never expire — the zero-overhead path:
// no guard goroutine, no channel, the dataset is asked directly.
func unarmed(ctx context.Context) bool { return ctx == nil || ctx.Done() == nil }

// AskWithin asks one query within ctx's deadline. Without a deadline (or
// cancellation) it is exactly ds.Ask.
func AskWithin(ctx context.Context, ds Dataset, q []byte) (Verdict, error) {
	if unarmed(ctx) {
		return ds.Ask(context.Background(), q)
	}
	v, _, err := guard(ctx, "answer", ds.DatasetID(), func() (Verdict, error) { return ds.Ask(ctx, q) })
	return v, err
}

// AskBatchWithin asks a batch within ctx's deadline. Without a deadline it
// is exactly ds.AskBatch.
func AskBatchWithin(ctx context.Context, ds Dataset, queries [][]byte, parallelism int) (Verdicts, error) {
	vs, _, err := AskBatchOrAbandon(ctx, ds, queries, parallelism)
	return vs, err
}

// AskBatchOrAbandon is AskBatchWithin for a caller that recycles the
// memory of its queries. abandoned reports that the deadline guard gave up
// on a batch still being answered: that worker goes on reading queries
// after this returns, so their memory must not be reused. Otherwise
// nothing reads them any more — every dataset's AskBatch joins the workers
// it starts before it returns.
func AskBatchOrAbandon(ctx context.Context, ds Dataset, queries [][]byte, parallelism int) (vs Verdicts, abandoned bool, err error) {
	if unarmed(ctx) {
		vs, err = ds.AskBatch(context.Background(), queries, parallelism)
		return vs, false, err
	}
	return guard(ctx, "batch", ds.DatasetID(), func() (Verdicts, error) {
		return ds.AskBatch(ctx, queries, parallelism)
	})
}

// AnswerWithin answers one query within ctx's deadline. Without a
// deadline (or cancellation) it is exactly ds.Answer.
func AnswerWithin(ctx context.Context, ds Dataset, q []byte) (bool, error) {
	v, err := AskWithin(ctx, ds, q)
	return v.Answer, err
}

// AnswerBatchWithin answers a batch within ctx's deadline. Without a
// deadline it is exactly ds.AnswerBatch. The middle result is always 0:
// every dataset answers through its one prepared answerer, so no query is
// ever answered another way. It is kept only because the benchmark ladder
// (bench/ladder.go) calls this function for three results.
func AnswerBatchWithin(ctx context.Context, ds Dataset, queries [][]byte, parallelism int) (answers []bool, degraded int, err error) {
	vs, err := AskBatchWithin(ctx, ds, queries, parallelism)
	return vs.Answers, 0, err
}
