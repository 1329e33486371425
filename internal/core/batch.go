package core

// Concurrent batch answering. The paper's asymmetry — preprocess once in
// PTIME, answer each query in NC — is exactly the shape that serves many
// clients from one preprocessed store: Π(D) is an immutable byte string and
// its prepared Answerer is immutable too, so any number of goroutines may
// answer through it at once. AnswerBatchPrepared is the worker-pool entry
// point for that mode.
//
// # The scheme concurrency contract
//
// Every Scheme (and FuncScheme) in this repository obeys, and every new
// scheme must obey:
//
//  1. Preprocess is called once per database, before any Prepare. It needs
//     no internal synchronization but must not retain and later mutate the
//     returned preprocessed string.
//  2. Prepare must not mutate pd, and the Answerer it returns must be safe
//     to call from any number of goroutines concurrently. In practice that
//     means Answerer.Answer treats its prepared state and q as read-only and
//     keeps per-call state on the stack; schemes that memoize shared state
//     across calls (e.g. the compiled-tableau cache of the Theorem 5 chain)
//     must guard it with a mutex.
//  3. Answerer.Answer must not mutate q or anything Prepare built, even
//     transiently: a concurrent reader would observe the intermediate state.
//
// The contract is enforced by the schemes package's concurrency stress
// test, which runs every registered scheme's Answerer from many goroutines
// under the race detector.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// AnswerBatch answers queries concurrently against one preprocessed store
// and returns the verdicts in query order: Prepare once, then
// AnswerBatchPrepared. parallelism bounds the workers; values <= 0 select
// runtime.GOMAXPROCS(0). There is at most one worker per query, and a single
// worker is the plain sequential loop on the calling goroutine.
//
// The first error (by lowest query index) aborts the batch: remaining
// workers drain quickly and the partial results are discarded. A Π that
// Prepare refuses fails the batch at query 0; an empty batch asks nothing
// and fails nothing. On success results[i] is Answer(pd, queries[i]) for
// every i.
func (s *Scheme) AnswerBatch(pd []byte, queries [][]byte, parallelism int) ([]bool, error) {
	a, err := s.Prepare(pd)
	if err != nil {
		if len(queries) == 0 {
			return []bool{}, nil
		}
		return nil, fmt.Errorf("scheme %s: batch query 0: %w", s.SchemeName, err)
	}
	return AnswerBatchPrepared(nil, s.SchemeName, a, queries, parallelism)
}

// AnswerBatchPrepared is the worker pool over a prepared Answerer: verdicts
// in query order, the first failing query (lowest index) failing the batch
// as "scheme <label>: batch query <i>: …". A ctx that can be cancelled is
// consulted before every probe, so an expired deadline abandons the rest of
// the batch promptly instead of paying every remaining query; the batch then
// fails at the lowest unanswered index, wrapping ctx.Err(). A nil ctx, or
// one that can never be cancelled, is the plain pool.
func AnswerBatchPrepared(ctx context.Context, label string, a Answerer, queries [][]byte, parallelism int) ([]bool, error) {
	answer := a.Answer
	if ctx != nil && ctx.Done() != nil {
		answer = func(q []byte) (bool, error) {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			return a.Answer(q)
		}
	}
	return answerPool("scheme", label, answer, queries, parallelism)
}

// answerChunk is the most queries a worker claims at a time: in a large
// batch the hand-off costs one atomic add per 64 probes, and 64 bool
// results are one cache line, so two workers never write into the same
// line. A batch too small to give every worker a whole chunk is split
// evenly instead, so a few costly probes still spread over the workers.
const answerChunk = 64

// ErrProbePanicked marks a batch query whose probe panicked ("… batch query
// <i>: panicked: …"): a fault of the scheme, not of the query, which
// errors.Is finds through every wrapping the stores add.
var ErrProbePanicked = errors.New("panicked")

// answerPool is the one worker pool behind every batch entry point —
// verdicts for a Scheme, outputs for a FuncScheme; kind and label name the
// scheme in error messages ("scheme <label>: batch query <i>: …").
//
// Workers claim the batch in increasing chunks and finish every chunk they
// claim unless one of its own queries fails, so every index below a failure
// has been answered (or has failed) by the time the pool drains: the error
// reported is the lowest failing index, whatever the interleaving. A probe
// that panics fails its query with ErrProbePanicked, never the process. The
// calling goroutine is worker 0, and the pool joins every worker before it
// returns.
func answerPool[T any](kind, label string, answer func(q []byte) (T, error), queries [][]byte, parallelism int) ([]T, error) {
	results := make([]T, len(queries))
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	chunk := answerChunk
	if len(queries) > 0 {
		chunk = min(answerChunk, (len(queries)+parallelism-1)/parallelism)
	}
	parallelism = max(1, min(parallelism, (len(queries)+chunk-1)/chunk))

	type failure struct {
		i   int
		err error
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		// fails[w] is worker w's one failure: it stops at the first.
		fails = make([]failure, parallelism)
	)
	work := func(w int) {
		i := 0 // the query being probed, which a panic fails
		defer func() {
			if p := recover(); p != nil {
				fails[w] = failure{i, fmt.Errorf("%w: %v", ErrProbePanicked, p)}
				failed.Store(true)
			}
		}()
		for !failed.Load() {
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= len(queries) {
				return
			}
			for i = lo; i < min(lo+chunk, len(queries)); i++ {
				got, err := answer(queries[i])
				if err != nil {
					fails[w] = failure{i, err}
					failed.Store(true)
					return
				}
				results[i] = got
			}
		}
	}
	wg.Add(parallelism - 1)
	for w := 1; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	first := failure{i: len(queries)}
	for _, f := range fails {
		if f.err != nil && f.i < first.i {
			first = f
		}
	}
	if first.err != nil {
		return nil, fmt.Errorf("%s %s: batch query %d: %w", kind, label, first.i, first.err)
	}
	return results, nil
}

// ApplyBatch is AnswerBatch for function schemes: it computes Apply for
// every query concurrently and returns the outputs in query order, under
// the same concurrency contract and error policy.
func (s *FuncScheme) ApplyBatch(pd []byte, queries [][]byte, parallelism int) ([][]byte, error) {
	return answerPool("func scheme", s.SchemeName, func(q []byte) ([]byte, error) {
		return s.Apply(pd, q)
	}, queries, parallelism)
}
