package harness

// The X experiments measure the concurrent execution engine added on top
// of the paper reproduction: X1 substitutes the goroutine-backed PRAM
// executor for the sequential oracle on the closure workload and verifies
// the substitution rule (identical results, rounds, and work — only host
// wall-clock may change); X2 serves query batches through the prepared
// worker pool (AnswerBatchPrepared) against one prepared store, the paper's
// preprocess-once/answer-many mode under concurrency. Both report
// sequential-vs-parallel wall-clock; the speedup column approaches the
// worker count on multi-core hosts and ~1.0 on a single core.

import (
	"fmt"
	"math/rand"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/pram"
	"pitract/internal/schemes"
)

// X1ParallelPRAM runs transitive closure — the widest PRAM program in the
// repository, n³ activations per squaring round — on both executors and
// reports rounds, work, and wall-clock for each.
func X1ParallelPRAM(s Scale) (*Table, error) {
	t := &Table{
		ID:    "X1",
		Title: "parallel PRAM executor vs the sequential oracle (transitive closure)",
		Columns: []string{"n", "rounds", "work", "seq ms", "par ms",
			"speedup", "workers"},
	}
	workers := Parallelism()
	for _, n := range s.sizes([]int{16, 32, 48}, []int{32, 64, 96, 128}) {
		adj := pram.NewBoolMatrix(n)
		for i := 0; i+1 < n; i++ {
			adj.Set(i, i+1, true) // a path: worst-case diameter
		}
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n; i++ { // sprinkle extra edges for realism
			adj.Set(rng.Intn(n), rng.Intn(n), true)
		}

		seqM := pram.New(0)
		var seqOut *pram.BoolMatrix
		seqNs := timeOp(1, func() {
			seqM = pram.New(0)
			seqOut = pram.TransitiveClosure(seqM, adj)
		})

		parM := pram.New(0)
		var parOut *pram.BoolMatrix
		parNs := timeOp(1, func() {
			parM = pram.New(0, pram.WithWorkers(workers))
			parOut = pram.TransitiveClosure(parM, adj)
		})

		// The substitution rule, enforced: identical closure, rounds, work.
		if !seqOut.Equal(parOut) {
			return nil, fmt.Errorf("X1: closure diverged between executors at n=%d", n)
		}
		if seqM.Cost() != parM.Cost() {
			return nil, fmt.Errorf("X1: cost diverged at n=%d: sequential %v, parallel %v",
				n, seqM.Cost(), parM.Cost())
		}
		c := seqM.Cost()
		t.AddRow(n, c.Rounds, c.Work, seqNs/1e6, parNs/1e6, seqNs/parNs, workers)
	}
	t.Note("executor substitution verified: results, rounds and work are identical; only wall-clock differs")
	t.Note("speedup ≈ 1.0 on a single core; grows toward the worker count with GOMAXPROCS")
	return t, nil
}

// X2BatchAnswering serves a batch of reachability queries from one
// prepared store, comparing the one-at-a-time loop against the
// AnswerBatchPrepared worker pool — the pool the stores serve batches
// through. A BFS-per-query answer is a bidirectional search over the decoded
// CSR, under a microsecond on these random graphs; the closure scheme row
// shows the overhead floor on O(1) answers.
func X2BatchAnswering(s Scale) (*Table, error) {
	t := &Table{
		ID:    "X2",
		Title: "concurrent batch answering: AnswerBatchPrepared vs one-at-a-time loop",
		Columns: []string{"scheme", "vertices", "queries", "loop ms",
			"batch ms", "speedup", "workers"},
	}
	workers := Parallelism()
	const queryCount = 64
	for _, n := range s.sizes([]int{256, 512}, []int{512, 1024, 2048}) {
		g := graph.RandomDirected(n, 4*n, int64(n))
		d := g.Encode()
		rng := rand.New(rand.NewSource(int64(n) + 13))
		queries := make([][]byte, queryCount)
		for i := range queries {
			queries[i] = schemes.NodePairQuery(rng.Intn(n), rng.Intn(n))
		}
		for _, sc := range []struct {
			label  string
			scheme *core.Scheme
		}{
			{"bfs-per-query", schemes.ReachabilityBFSScheme()},
			{"closure-matrix", schemes.ReachabilityScheme()},
		} {
			pd, err := sc.scheme.Preprocess(d)
			if err != nil {
				return nil, err
			}
			a := answerer(sc.scheme, pd)
			var loopRes, batchRes []bool
			loopNs := timeOp(1, func() {
				loopRes, err = core.AnswerBatchPrepared(nil, sc.scheme.Name(), a, queries, 1)
			})
			if err != nil {
				return nil, err
			}
			batchNs := timeOp(1, func() {
				batchRes, err = core.AnswerBatchPrepared(nil, sc.scheme.Name(), a, queries, workers)
			})
			if err != nil {
				return nil, err
			}
			for i := range loopRes {
				if loopRes[i] != batchRes[i] {
					return nil, fmt.Errorf("X2: %s query %d diverged between loop and batch", sc.label, i)
				}
			}
			t.AddRow(sc.label, n, queryCount, loopNs/1e6, batchNs/1e6, loopNs/batchNs, workers)
		}
	}
	t.Note("verdicts verified identical between loop and worker pool")
	t.Note("both schemes are prepared once and the pool probes their Answerer, as a store does; the bfs-per-query baseline's Prepare only decodes and freezes G, so each answer is still a search, but one short enough here that a 64-query batch does not pay for a second worker")
	return t, nil
}
