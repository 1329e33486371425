package pram

// The goroutine-backed parallel executor. A round's processor activations
// are partitioned into contiguous chunks of processor ids; a bounded pool
// of worker goroutines claims chunks off an atomic counter and runs each
// chunk's kernels against a chunk-private roundSink. Because chunks cover
// [0, procs) in order and their journals are committed in chunk order, the
// commit sequence is exactly the sequential executor's processor order —
// the parallel path is observationally identical to the oracle (memory
// image, rounds, work, and conflict verdicts), differing only in host
// wall-clock time.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultGrain is the default minimum number of processor activations per
// parallel chunk. Rounds narrower than two grains run sequentially: a
// goroutine handoff costs on the order of a microsecond, so scattering a
// handful of cheap kernel calls across workers would only add overhead.
const DefaultGrain = 1 << 11

// chunksPerWorker bounds how many chunks a round is split into, as a
// multiple of the worker count. More chunks than workers smooths load
// imbalance between kernels of different cost; too many wastes time on
// chunk bookkeeping.
const chunksPerWorker = 4

// WithWorkers enables the parallel executor with n worker goroutines.
// n <= 0 selects runtime.GOMAXPROCS(0). n == 1 keeps the sequential
// executor, which is the reference oracle.
func WithWorkers(n int) Option {
	return func(m *Machine) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		m.workers = n
	}
}

// parallelEligible reports whether a round of procs activations is worth
// running on the worker pool.
func (m *Machine) parallelEligible(procs int) bool {
	return m.workers > 1 && procs >= 2*m.grain
}

func (m *Machine) stepParallel(procs int, kernel func(Ctx)) error {
	// Chunk the round: at least grain activations per chunk, at most
	// chunksPerWorker chunks per worker.
	chunk := m.grain
	nChunks := (procs + chunk - 1) / chunk
	if maxChunks := m.workers * chunksPerWorker; nChunks > maxChunks {
		chunk = (procs + maxChunks - 1) / maxChunks
		nChunks = (procs + chunk - 1) / chunk
	}
	for len(m.par) < nChunks {
		m.par = append(m.par, roundSink{})
	}
	sinks := m.par[:nChunks]
	for i := range sinks {
		sinks[i].reset(m.detect)
	}

	workers := m.workers
	if workers > nChunks {
		workers = nChunks
	}
	var (
		next     atomic.Int64
		panicMu  sync.Mutex
		panicked any
		didPanic bool
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				// A kernel panic (bad address, caller bug) must surface on
				// the calling goroutine like in the sequential executor,
				// not crash the process. Guarded by a mutex: panic values
				// of different concrete types are fine.
				if r := recover(); r != nil {
					panicMu.Lock()
					if !didPanic {
						panicked, didPanic = r, true
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= nChunks {
					return
				}
				s := &sinks[i]
				lo := i * chunk
				hi := lo + chunk
				if hi > procs {
					hi = procs
				}
				for p := lo; p < hi; p++ {
					kernel(Ctx{m: m, sink: s, proc: p})
				}
			}
		}()
	}
	wg.Wait()
	if didPanic {
		panic(panicked)
	}

	if m.detect {
		conflict := false
		clear(m.writers)
		for i := range sinks {
			s := &sinks[i]
			if s.conflict {
				conflict = true
			}
			for addr, proc := range s.writers {
				if prev, ok := m.writers[addr]; ok && prev != proc {
					conflict = true
				} else {
					m.writers[addr] = proc
				}
			}
		}
		if conflict {
			return ErrWriteConflict
		}
	}
	// Commit chunk journals in chunk order == processor order, so even the
	// last-write-wins outcome of undetected collisions matches the oracle.
	for i := range sinks {
		for _, w := range sinks[i].journal {
			m.mem[w.addr] = w.val
		}
	}
	m.rounds++
	m.work += int64(procs)
	return nil
}
