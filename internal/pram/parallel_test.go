package pram

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// withGrain sets the minimum processor activations per parallel chunk
// (DefaultGrain by default).
func withGrain(g int) Option {
	return func(m *Machine) { m.grain = g }
}

// parallelOpts forces even tiny programs onto the parallel executor so the
// differential tests exercise it regardless of round width.
func parallelOpts(extra ...Option) []Option {
	return append([]Option{WithWorkers(4), withGrain(1)}, extra...)
}

// reduceSum folds vals into cell 0 with a binary tree of rounds: ⌈log2 n⌉
// rounds, each half as wide as the one before.
func reduceSum(m *Machine, vals []int64) int64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	m.Grow(n)
	copy(m.mem, vals)
	for width := n; width > 1; width = (width + 1) / 2 {
		half := (width + 1) / 2
		m.MustStep(half, func(c Ctx) {
			p := c.Proc()
			v := c.Load(p)
			if p+half < width {
				v += c.Load(p + half)
			}
			c.Store(p, v)
		})
	}
	return m.Load(0)
}

// pointerJump resolves, for every node of a forest given by parent
// pointers (parent[i] == i marks a root), the root of its tree: each round
// every processor reads at an address the data chose.
func pointerJump(m *Machine, parent []int) []int64 {
	n := len(parent)
	m.Grow(n)
	for i, p := range parent {
		m.Store(i, int64(p))
	}
	for r := 0; r < ceilLog2(n)+1; r++ {
		m.MustStep(n, func(c Ctx) {
			p := c.Proc()
			c.Store(p, c.Load(int(c.Load(p))))
		})
	}
	return slices.Clone(m.mem[:n])
}

// diffMachines runs prog on a sequential oracle machine and a parallel
// machine and asserts byte-identical memory images, equal outputs (as
// reported by prog), and equal round/work accounting.
func diffMachines(t *testing.T, name string, prog func(m *Machine) interface{}) {
	t.Helper()
	seq := New(0, withConflictDetection())
	par := New(0, parallelOpts(withConflictDetection())...)
	wantOut := prog(seq)
	gotOut := prog(par)

	if seq.Cost() != par.Cost() {
		t.Errorf("%s: cost diverged: sequential %v, parallel %v", name, seq.Cost(), par.Cost())
	}
	if seq.Size() != par.Size() {
		t.Fatalf("%s: memory size diverged: sequential %d, parallel %d", name, seq.Size(), par.Size())
	}
	seqMem := seq.mem
	parMem := par.mem
	for i := range seqMem {
		if seqMem[i] != parMem[i] {
			t.Fatalf("%s: memory cell %d diverged: sequential %d, parallel %d",
				name, i, seqMem[i], parMem[i])
		}
	}
	assertDeepEqual(t, name, wantOut, gotOut)
}

func assertDeepEqual(t *testing.T, name string, want, got interface{}) {
	t.Helper()
	switch w := want.(type) {
	case []int64:
		g := got.([]int64)
		if len(w) != len(g) {
			t.Fatalf("%s: output length diverged: %d vs %d", name, len(w), len(g))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("%s: output[%d] diverged: %d vs %d", name, i, w[i], g[i])
			}
		}
	case *BoolMatrix:
		if !w.Equal(got.(*BoolMatrix)) {
			t.Fatalf("%s: closure matrices diverged", name)
		}
	case int64:
		if w != got.(int64) {
			t.Fatalf("%s: output diverged: %d vs %d", name, w, got)
		}
	default:
		t.Fatalf("%s: unhandled output type %T", name, want)
	}
}

// TestParallelMatchesSequentialOnAllPrograms is the differential oracle
// test: every PRAM program in the repository must produce byte-identical
// memory images, outputs, rounds, and work on both executors.
func TestParallelMatchesSequentialOnAllPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]int64, 777) // odd length exercises ragged chunking
	for i := range vals {
		vals[i] = rng.Int63n(1 << 20)
	}
	parent := make([]int, 500)
	for i := range parent {
		if i == 0 || rng.Intn(4) == 0 {
			parent[i] = i
		} else {
			parent[i] = rng.Intn(i)
		}
	}
	adj := randMatrix(rng, 23, 0.12)

	cases := []struct {
		name string
		prog func(m *Machine) interface{}
	}{
		{"ReduceSum", func(m *Machine) interface{} { return reduceSum(m, vals) }},
		{"PointerJump", func(m *Machine) interface{} { return pointerJump(m, parent) }},
		{"BitonicSort", func(m *Machine) interface{} { return bitonicSort(m, vals) }},
		{"TransitiveClosure", func(m *Machine) interface{} { return TransitiveClosure(m, adj) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { diffMachines(t, tc.name, tc.prog) })
	}
}

// TestParallelDefaultGrainPath runs a round wide enough to clear
// DefaultGrain with default options, covering the production configuration
// rather than the test-forced grain of 1.
func TestParallelDefaultGrainPath(t *testing.T) {
	n := 4 * DefaultGrain
	seq := New(n)
	par := New(n, WithWorkers(4))
	step := func(m *Machine) {
		m.MustStep(n, func(c Ctx) { c.Store(c.Proc(), int64(3*c.Proc()+1)) })
	}
	step(seq)
	step(par)
	for i := 0; i < n; i++ {
		if seq.Load(i) != par.Load(i) {
			t.Fatalf("cell %d: sequential %d, parallel %d", i, seq.Load(i), par.Load(i))
		}
	}
	if seq.Cost() != par.Cost() {
		t.Fatalf("cost diverged: %v vs %v", seq.Cost(), par.Cost())
	}
}

// TestParallelConflictDetection checks CREW enforcement across chunk
// boundaries: with grain 1 every processor lands in its own chunk, so the
// collision below is only visible to the cross-chunk writer-map merge.
func TestParallelConflictDetection(t *testing.T) {
	m := New(2, parallelOpts(withConflictDetection())...)
	m.Store(0, 42)
	err := m.Step(4, func(c Ctx) { c.Store(0, int64(c.Proc())) })
	if err != ErrWriteConflict {
		t.Fatalf("err = %v, want ErrWriteConflict", err)
	}
	if m.Load(0) != 42 {
		t.Fatalf("conflicting round committed: cell 0 = %d, want 42", m.Load(0))
	}
	if c := m.Cost(); c.Rounds != 0 || c.Work != 0 {
		t.Fatalf("conflicting round was charged: %v", c)
	}
	// A conflict-free round on the same machine still works afterwards.
	if err := m.Step(2, func(c Ctx) { c.Store(c.Proc(), int64(c.Proc())) }); err != nil {
		t.Fatalf("clean round after conflict: %v", err)
	}
}

// TestParallelIntraChunkConflictDetection forces two processors into one
// chunk so the conflict is latched inside a single sink.
func TestParallelIntraChunkConflictDetection(t *testing.T) {
	m := New(1, WithWorkers(2), withGrain(2), withConflictDetection())
	err := m.Step(4, func(c Ctx) { c.Store(0, int64(c.Proc())) })
	if err != ErrWriteConflict {
		t.Fatalf("err = %v, want ErrWriteConflict", err)
	}
}

// TestParallelSameProcRewriteLegal: one processor rewriting its own cell is
// last-write-wins, not a conflict — also on the parallel path.
func TestParallelSameProcRewriteLegal(t *testing.T) {
	m := New(4, parallelOpts(withConflictDetection())...)
	if err := m.Step(4, func(c Ctx) {
		c.Store(c.Proc(), 1)
		c.Store(c.Proc(), int64(10+c.Proc()))
	}); err != nil {
		t.Fatalf("Step: %v", err)
	}
	for p := 0; p < 4; p++ {
		if m.Load(p) != int64(10+p) {
			t.Fatalf("cell %d = %d, want %d", p, m.Load(p), 10+p)
		}
	}
}

// TestParallelLastWriteWinsMatchesOracle: with detection off, an (illegal)
// multi-writer round must still resolve exactly like the sequential
// executor — the highest processor id wins — so buggy programs at least
// stay deterministic under executor substitution.
func TestParallelLastWriteWinsMatchesOracle(t *testing.T) {
	const procs = 97
	seq := New(1)
	par := New(1, parallelOpts()...)
	kernel := func(c Ctx) { c.Store(0, int64(c.Proc())) }
	seq.MustStep(procs, kernel)
	par.MustStep(procs, kernel)
	if seq.Load(0) != par.Load(0) {
		t.Fatalf("collision resolution diverged: sequential %d, parallel %d", seq.Load(0), par.Load(0))
	}
	if seq.Load(0) != procs-1 {
		t.Fatalf("last write should win: got %d, want %d", seq.Load(0), procs-1)
	}
}

// TestParallelSynchronousSemantics: the parallel executor must also read
// the pre-round image (the n-cell rotation only works if it does).
func TestParallelSynchronousSemantics(t *testing.T) {
	const n = 64
	m := New(n, parallelOpts(withConflictDetection())...)
	for i := 0; i < n; i++ {
		m.Store(i, int64(i))
	}
	m.MustStep(n, func(c Ctx) {
		c.Store(c.Proc(), c.Load((c.Proc()+1)%n))
	})
	for i := 0; i < n; i++ {
		if m.Load(i) != int64((i+1)%n) {
			t.Fatalf("cell %d = %d, want %d", i, m.Load(i), (i+1)%n)
		}
	}
}

// TestParallelKernelPanicPropagates: a panicking kernel must surface on
// the caller, as with the sequential executor.
func TestParallelKernelPanicPropagates(t *testing.T) {
	m := New(1, parallelOpts()...)
	defer func() {
		if recover() == nil {
			t.Fatal("kernel panic was swallowed by the worker pool")
		}
	}()
	m.MustStep(8, func(c Ctx) {
		if c.Proc() == 5 {
			panic("kernel bug")
		}
	})
}

func TestWithWorkersDefaults(t *testing.T) {
	if got := New(0, WithWorkers(0)).workers; got != runtime.GOMAXPROCS(0) {
		t.Errorf("WithWorkers(0) → %d workers, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	if New(0).parallelEligible(1 << 30) {
		t.Error("a default machine runs rounds on the worker pool, want the sequential executor")
	}
	if got := New(0, WithWorkers(3)).workers; got != 3 {
		t.Errorf("WithWorkers(3) → %d workers", got)
	}
}

// TestParallelNarrowRoundFallsBack: a parallel machine still runs narrow
// rounds on the sequential path (procs < 2·grain), transparently.
func TestParallelNarrowRoundFallsBack(t *testing.T) {
	m := New(4, WithWorkers(4)) // default grain; 4 procs is far below it
	if m.parallelEligible(4) {
		t.Fatal("narrow round should not be parallel-eligible")
	}
	m.MustStep(4, func(c Ctx) { c.Store(c.Proc(), 9) })
	for i := 0; i < 4; i++ {
		if m.Load(i) != 9 {
			t.Fatalf("cell %d = %d, want 9", i, m.Load(i))
		}
	}
}
