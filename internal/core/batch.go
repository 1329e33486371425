package core

// Concurrent batch answering. The paper's asymmetry — preprocess once in
// PTIME, answer each query in NC — is exactly the shape that serves many
// clients from one preprocessed store: Π(D) is an immutable byte string, so
// any number of goroutines may answer against it at once. AnswerBatch is
// the worker-pool entry point for that mode.
//
// # The scheme concurrency contract
//
// Every Scheme (and FuncScheme) in this repository obeys, and every new
// scheme must obey:
//
//  1. Preprocess is called once per database, before any Answer. It needs
//     no internal synchronization but must not retain and later mutate the
//     returned preprocessed string.
//  2. Answer must be safe to call from any number of goroutines
//     concurrently with the same pd. In practice that means Answer treats
//     pd and q as read-only and keeps per-call state on the stack; schemes
//     that memoize shared state across calls (e.g. the compiled-tableau
//     cache of the Theorem 5 chain) must guard it with a mutex.
//  3. Answer must not mutate pd or q, even transiently: a concurrent
//     reader would observe the intermediate state.
//
// The contract is enforced by the schemes package's concurrency stress
// test, which runs every registered scheme's Answer from many goroutines
// under the race detector.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// AnswerBatch answers queries concurrently against one preprocessed store
// and returns the verdicts in query order. parallelism bounds the worker
// goroutines; values <= 0 select runtime.GOMAXPROCS(0). A parallelism of 1
// degenerates to the plain sequential loop.
//
// The first error (by lowest query index) aborts the batch: remaining
// workers drain quickly and the partial results are discarded. On success
// results[i] is Answer(pd, queries[i]) for every i.
func (s *Scheme) AnswerBatch(pd []byte, queries [][]byte, parallelism int) ([]bool, error) {
	return answerPool("scheme", s.SchemeName, func(q []byte) (bool, error) {
		return s.Answer(pd, q)
	}, queries, parallelism)
}

// AnswerBatchPrepared is AnswerBatch over a prepared Answerer: the same
// worker pool, error policy, and query ordering, but every probe rides the
// decoded in-memory form instead of re-reading pd. label names the scheme in
// error messages, keeping them identical to the raw batch path's.
func AnswerBatchPrepared(label string, a Answerer, queries [][]byte, parallelism int) ([]bool, error) {
	return answerPool("scheme", label, a.Answer, queries, parallelism)
}

// AnswerBatchPreparedContext is AnswerBatchPrepared with cooperative
// cancellation: ctx is consulted before every probe, so an expired
// deadline abandons the rest of the batch promptly instead of paying
// every remaining query. The batch fails with the usual error shape at
// the lowest unanswered index, wrapping ctx.Err(). A context that can
// never be cancelled degenerates to the plain prepared batch.
func AnswerBatchPreparedContext(ctx context.Context, label string, a Answerer, queries [][]byte, parallelism int) ([]bool, error) {
	if ctx == nil || ctx.Done() == nil {
		return AnswerBatchPrepared(label, a, queries, parallelism)
	}
	return answerPool("scheme", label, func(q []byte) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		return a.Answer(q)
	}, queries, parallelism)
}

// answerPool is the one worker pool behind every batch entry point —
// verdicts for a Scheme, outputs for a FuncScheme; kind and label name the
// scheme in error messages ("scheme <label>: batch query <i>: …").
func answerPool[T any](kind, label string, answer func(q []byte) (T, error), queries [][]byte, parallelism int) ([]T, error) {
	results := make([]T, len(queries))
	if len(queries) == 0 {
		return results, nil
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(queries) {
		parallelism = len(queries)
	}
	if parallelism == 1 {
		for i, q := range queries {
			got, err := answer(q)
			if err != nil {
				return nil, fmt.Errorf("%s %s: batch query %d: %w", kind, label, i, err)
			}
			results[i] = got
		}
		return results, nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	errs := make([]error, len(queries))
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				got, err := answer(queries[i])
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				results[i] = got
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s %s: batch query %d: %w", kind, label, i, err)
		}
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
