package pram

import (
	"math/rand"
	"testing"
)

// withConflictDetection turns on the CREW check: a round in which two
// processors write one cell fails with ErrWriteConflict. It costs host
// time, so only tests run with it.
func withConflictDetection() Option {
	return func(m *Machine) { m.detect = true }
}

func TestStepSynchronousSemantics(t *testing.T) {
	// A parallel swap only works if reads see the pre-round image.
	m := New(2, withConflictDetection())
	m.Store(0, 7)
	m.Store(1, 9)
	if err := m.Step(2, func(c Ctx) {
		c.Store(c.Proc(), c.Load(1-c.Proc()))
	}); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if m.Load(0) != 9 || m.Load(1) != 7 {
		t.Fatalf("swap failed: got %d,%d", m.Load(0), m.Load(1))
	}
}

func TestStepCountsCost(t *testing.T) {
	m := New(8)
	for i := 0; i < 3; i++ {
		m.MustStep(4, func(Ctx) {})
	}
	got := m.Cost()
	if got.Rounds != 3 || got.Work != 12 {
		t.Fatalf("cost = %+v, want rounds=3 work=12", got)
	}
}

func TestStepRejectsNonPositiveProcs(t *testing.T) {
	m := New(1)
	if err := m.Step(0, func(Ctx) {}); err == nil {
		t.Fatal("Step(0) succeeded, want error")
	}
}

func TestConflictDetection(t *testing.T) {
	m := New(1, withConflictDetection())
	err := m.Step(2, func(c Ctx) { c.Store(0, int64(c.Proc())) })
	if err != ErrWriteConflict {
		t.Fatalf("err = %v, want ErrWriteConflict", err)
	}
	// Same processor rewriting a cell is legal (last write wins).
	if err := m.Step(1, func(c Ctx) {
		c.Store(0, 1)
		c.Store(0, 2)
	}); err != nil {
		t.Fatalf("single-proc rewrite: %v", err)
	}
	if m.Load(0) != 2 {
		t.Fatalf("last write should win, got %d", m.Load(0))
	}
}

func TestGrowPreservesContents(t *testing.T) {
	m := New(2)
	m.Store(1, 5)
	m.Grow(10)
	if m.Size() != 10 || m.Load(1) != 5 {
		t.Fatalf("grow lost data: size=%d cell=%d", m.Size(), m.Load(1))
	}
	m.Grow(4) // shrinking request is a no-op
	if m.Size() != 10 {
		t.Fatalf("grow shrank memory to %d", m.Size())
	}
}

func randMatrix(rng *rand.Rand, n int, density float64) *BoolMatrix {
	a := NewBoolMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				a.Set(i, j, true)
			}
		}
	}
	return a
}

func TestTransitiveClosureMatchesWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(24)
		adj := randMatrix(rng, n, 0.15)
		want := WarshallClosure(adj)
		got := TransitiveClosure(New(1), adj)
		if !got.Equal(want) {
			t.Fatalf("trial %d (n=%d): PRAM closure differs from Warshall", trial, n)
		}
	}
}

func TestTransitiveClosureRoundsPolylog(t *testing.T) {
	// Rounds should scale like log²(n): for n=64 expect far fewer rounds
	// than n, and roughly (log 64 / log 8)² ≈ 4x the rounds of n=8.
	rounds := func(n int) int {
		m := New(1)
		adj := NewBoolMatrix(n)
		for i := 0; i+1 < n; i++ {
			adj.Set(i, i+1, true) // a path: worst-case diameter
		}
		TransitiveClosure(m, adj)
		return m.Cost().Rounds
	}
	r8, r64 := rounds(8), rounds(64)
	if r64 >= 64 {
		t.Errorf("closure of n=64 took %d rounds; not polylog", r64)
	}
	if r64 > 8*r8 {
		t.Errorf("round growth 8→64 is %dx (r8=%d r64=%d); exceeds polylog scaling", r64/r8, r8, r64)
	}
}

func TestBoolMatrixHelpers(t *testing.T) {
	a := NewBoolMatrix(2)
	a.Set(0, 1, true)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Set(1, 0, true)
	if a.Equal(b) {
		t.Fatal("mutated clone still equal")
	}
	if a.Equal(NewBoolMatrix(3)) {
		t.Fatal("matrices of different size compared equal")
	}
	if TransitiveClosure(New(1), NewBoolMatrix(0)).N != 0 {
		t.Fatal("empty closure should be empty")
	}
}

func TestCostString(t *testing.T) {
	if got := (Cost{Rounds: 5, Work: 15}).String(); got != "rounds=5 work=15" {
		t.Fatalf("String = %q", got)
	}
}
