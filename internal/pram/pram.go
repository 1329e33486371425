// Package pram implements a deterministic CREW PRAM simulator.
//
// The paper defines Π-tractable query answering as "parallel polylog-time
// with polynomially many processors", i.e. the class NC, whose canonical
// machine model is the PRAM (parallel random access machine). Physical
// massively-parallel hardware is not available here, so we simulate the
// machine and account for its two resources exactly:
//
//   - rounds: the number of synchronous parallel steps (parallel time), and
//   - work:   the total number of processor activations across all rounds.
//
// An algorithm is empirically "in NC" when its measured rounds grow
// polylogarithmically in the input size while its processor count stays
// polynomial. The simulator enforces CREW semantics (concurrent reads,
// exclusive writes): two processors writing the same cell in one round is a
// programming error and is detected when conflict checking is enabled.
//
// All computation inside a round reads the memory image from the start of
// the round; writes become visible only when the round commits. This gives
// the synchronous semantics the NC literature assumes.
//
// # Execution engines and the parallel substitution rule
//
// The machine has two interchangeable executors:
//
//   - the sequential executor (the default) runs every processor activation
//     of a round on the calling goroutine, in processor order. It is the
//     reference oracle: simple, allocation-light, and trivially
//     deterministic.
//
//   - the parallel executor (enabled with WithWorkers) partitions a round's
//     activations into contiguous processor-id chunks and runs the chunks on
//     a bounded pool of goroutines. Chunk journals are committed in chunk
//     order, which equals processor order, so the post-round memory image,
//     the round count, the work count, and even the last-write-wins
//     resolution of (illegal, undetected) write collisions are byte-for-byte
//     identical to the sequential executor. CREW conflict detection keeps
//     working: intra-chunk conflicts are caught during the round, and
//     cross-chunk conflicts are caught by merging the per-chunk writer maps
//     before commit.
//
// Substituting one executor for the other therefore never changes results
// or accounted costs — only host wall-clock time. Tests assert this
// differentially on every PRAM program in the repository; benchmarks
// measure the wall-clock gap.
//
// Kernels must be pure with respect to host state: a kernel may read and
// write machine memory through its Ctx and read captured variables, but it
// must not mutate shared host variables, because the parallel executor runs
// kernel invocations concurrently.
package pram

import (
	"errors"
	"fmt"
)

// Cost records the resources consumed by a simulated PRAM computation.
type Cost struct {
	Rounds int   // synchronous parallel steps
	Work   int64 // total processor activations
}

// Add returns the component-wise sum of two costs. Sequencing two PRAM
// computations adds both their rounds and their work.
func (c Cost) Add(d Cost) Cost { return Cost{c.Rounds + d.Rounds, c.Work + d.Work} }

// String renders the cost in a compact human-readable form.
func (c Cost) String() string { return fmt.Sprintf("rounds=%d work=%d", c.Rounds, c.Work) }

// ErrWriteConflict is returned by Step when two processors write the same
// memory cell in one round and conflict detection is enabled. CREW PRAMs
// forbid concurrent writes.
var ErrWriteConflict = errors.New("pram: concurrent write to the same cell within a round")

// Machine is a CREW PRAM with a flat memory of int64 cells.
//
// The zero value is not usable; construct machines with New.
type Machine struct {
	mem     []int64
	rounds  int
	work    int64
	detect  bool
	workers int // ≥ 2 enables the parallel executor
	grain   int // minimum activations per parallel chunk

	seq     roundSink   // reused by the sequential executor
	par     []roundSink // reused per-chunk sinks for the parallel executor
	writers map[int]int // merged writer map for cross-chunk detection
}

type write struct {
	addr int
	val  int64
}

// roundSink collects the writes (and, under conflict detection, the writer
// identities) produced by one executor lane during a round. The sequential
// executor uses a single sink; the parallel executor uses one per chunk.
type roundSink struct {
	journal  []write
	writers  map[int]int // addr -> processor id, populated only when detecting
	conflict bool
}

func (s *roundSink) reset(detect bool) {
	s.journal = s.journal[:0]
	s.conflict = false
	if detect {
		if s.writers == nil {
			s.writers = make(map[int]int)
		} else {
			clear(s.writers)
		}
	}
}

func (s *roundSink) store(proc, addr int, v int64) {
	if s.writers != nil {
		if prev, ok := s.writers[addr]; ok && prev != proc {
			// Record the conflict by poisoning; Step surfaces the error.
			s.conflict = true
		} else {
			s.writers[addr] = proc
		}
	}
	s.journal = append(s.journal, write{addr, v})
}

// Option configures a Machine.
type Option func(*Machine)

// WithConflictDetection enables per-round detection of concurrent writes.
// Detection costs extra host time, so benchmarks leave it off while tests
// turn it on.
func WithConflictDetection() Option {
	return func(m *Machine) { m.detect = true }
}

// New returns a machine with size zeroed memory cells.
func New(size int, opts ...Option) *Machine {
	m := &Machine{mem: make([]int64, size), grain: DefaultGrain}
	for _, o := range opts {
		o(m)
	}
	if m.detect {
		m.writers = make(map[int]int)
	}
	return m
}

// Size reports the number of memory cells.
func (m *Machine) Size() int { return len(m.mem) }

// Grow extends the memory to at least size cells, preserving contents.
// Growing models allocating a larger (still polynomial) memory and is a
// host-side operation with no round cost.
func (m *Machine) Grow(size int) {
	if size <= len(m.mem) {
		return
	}
	grown := make([]int64, size)
	copy(grown, m.mem)
	m.mem = grown
}

// Load reads a cell from the host side (outside any round).
func (m *Machine) Load(addr int) int64 { return m.mem[addr] }

// Store writes a cell from the host side (outside any round). Host I/O is
// part of loading the input and is not charged as PRAM work.
func (m *Machine) Store(addr int, v int64) { m.mem[addr] = v }

// LoadSlice copies cells [base, base+n) into a fresh host slice.
func (m *Machine) LoadSlice(base, n int) []int64 {
	out := make([]int64, n)
	copy(out, m.mem[base:base+n])
	return out
}

// StoreSlice copies a host slice into cells starting at base.
func (m *Machine) StoreSlice(base int, vals []int64) {
	copy(m.mem[base:base+len(vals)], vals)
}

// Cost reports the resources consumed since construction or the last
// ResetCost call.
func (m *Machine) Cost() Cost { return Cost{Rounds: m.rounds, Work: m.work} }

// ResetCost zeroes the round and work counters without touching memory.
func (m *Machine) ResetCost() { m.rounds, m.work = 0, 0 }

// Ctx gives a processor read access to the pre-round memory image and write
// access to the post-round image. It is valid only for the duration of the
// kernel invocation it is passed to.
type Ctx struct {
	m    *Machine
	sink *roundSink
	proc int
}

// Proc reports the processor id executing the kernel, in [0, procs).
func (c Ctx) Proc() int { return c.proc }

// Load reads a cell as it was at the start of the round.
func (c Ctx) Load(addr int) int64 { return c.m.mem[addr] }

// Store schedules a write that commits when the round ends. Writing the same
// cell twice from the same processor keeps the last value; writes from two
// different processors to one cell violate CREW and are reported by Step.
func (c Ctx) Store(addr int, v int64) { c.sink.store(c.proc, addr, v) }

// Step executes one synchronous round on procs processors. Every processor
// runs the kernel once; all loads observe the memory image from the start of
// the round, and all stores commit together when the round returns.
//
// The round adds 1 to Rounds and procs to Work. When the machine was built
// with WithWorkers, rounds wide enough to amortize goroutine scheduling run
// on the parallel executor; results and costs are identical either way.
func (m *Machine) Step(procs int, kernel func(Ctx)) error {
	if procs <= 0 {
		return fmt.Errorf("pram: Step needs a positive processor count, got %d", procs)
	}
	if m.parallelEligible(procs) {
		return m.stepParallel(procs, kernel)
	}
	return m.stepSequential(procs, kernel)
}

func (m *Machine) stepSequential(procs int, kernel func(Ctx)) error {
	s := &m.seq
	s.reset(m.detect)
	for p := 0; p < procs; p++ {
		kernel(Ctx{m: m, sink: s, proc: p})
	}
	if s.conflict {
		return ErrWriteConflict
	}
	for _, w := range s.journal {
		m.mem[w.addr] = w.val
	}
	m.rounds++
	m.work += int64(procs)
	return nil
}

// MustStep is Step for kernels the caller knows to be conflict-free; it
// panics on CREW violations, which indicate a bug in the calling algorithm
// rather than bad input.
func (m *Machine) MustStep(procs int, kernel func(Ctx)) {
	if err := m.Step(procs, kernel); err != nil {
		panic(err)
	}
}
