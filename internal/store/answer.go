package store

// The answer seam. Every dataset — a Store, plain or sharded, and the cache
// wrapper — answers through exactly two methods, Dataset.Ask and
// Dataset.AskBatch, which take the caller's context as an argument and return the verdict(s) together with the maintenance version
// they were computed at. Cancellation is cooperative: the context is
// checked before every probe, and every batch joins its workers before it
// returns. AskWithin / AskBatchWithin run the ask on the caller's goroutine
// and type an overrun as a DeadlineError, so an expired request returns at
// most one probe late and leaves no work running. AnswerWithin /
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

// deadlineError types the outcome of an ask of ds under ctx: an error
// caused by ctx, or a verdict that finished after ctx expired, is a
// DeadlineError; any other error passes through.
func deadlineError(ctx context.Context, op string, ds Dataset, err error) error {
	cerr := ctx.Err()
	if cerr == nil || (err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled)) {
		return err
	}
	return &DeadlineError{Op: op, ID: ds.DatasetID(), Err: cerr}
}

// AskWithin asks one query within ctx's deadline, on the caller's
// goroutine. A nil ctx is context.Background(); without a deadline (or
// cancellation) it is exactly ds.Ask.
func AskWithin(ctx context.Context, ds Dataset, q []byte) (Verdict, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	v, err := ds.Ask(ctx, q)
	return v, deadlineError(ctx, "answer", ds, err)
}

// AskBatchWithin asks a batch within ctx's deadline, on the caller's
// goroutine. A nil ctx is context.Background(); without a deadline it is
// exactly ds.AskBatch.
func AskBatchWithin(ctx context.Context, ds Dataset, queries [][]byte, parallelism int) (Verdicts, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	vs, err := ds.AskBatch(ctx, queries, parallelism)
	return vs, deadlineError(ctx, "batch", ds, err)
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
