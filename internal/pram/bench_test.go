package pram

import (
	"math/rand"
	"testing"
)

// Sequential-vs-parallel executor benchmarks on the two widest PRAM
// programs in the repository. Run with:
//
//	go test -bench=Executor ./internal/pram
//
// On a multi-core host the parallel variants win roughly linearly in core
// count for the closure (n³-wide rounds); on a single core they track the
// sequential oracle to within the pool's scheduling overhead.

func benchClosure(b *testing.B, opts ...Option) {
	rng := rand.New(rand.NewSource(3))
	adj := randMatrix(rng, 48, 0.08)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TransitiveClosure(New(0, opts...), adj)
	}
}

func BenchmarkExecutorClosureSequential(b *testing.B) { benchClosure(b) }
func BenchmarkExecutorClosureParallel(b *testing.B)   { benchClosure(b, WithWorkers(0)) }

func benchSort(b *testing.B, opts ...Option) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]int64, 1<<15)
	for i := range vals {
		vals[i] = rng.Int63()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bitonicSort(New(0, opts...), vals)
	}
}

func BenchmarkExecutorSortSequential(b *testing.B) { benchSort(b) }
func BenchmarkExecutorSortParallel(b *testing.B)   { benchSort(b, WithWorkers(0)) }

func benchWideStep(b *testing.B, opts ...Option) {
	const procs = 1 << 18
	m := New(procs, opts...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MustStep(procs, func(c Ctx) {
			p := c.Proc()
			c.Store(p, c.Load(p)+int64(p))
		})
	}
}

func BenchmarkExecutorWideStepSequential(b *testing.B) { benchWideStep(b) }
func BenchmarkExecutorWideStepParallel(b *testing.B)   { benchWideStep(b, WithWorkers(0)) }
