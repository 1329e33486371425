package inc

import (
	"math/rand"
	"testing"

	"pitract/internal/graph"
)

func TestInsertEdgeMaintainsClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(30)
		g := graph.RandomDirected(n, n, int64(trial))
		idx, err := New(g)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 25; step++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if err := idx.InsertEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := idx.VerifyAgainstRecompute(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRedundantInsertIsFree(t *testing.T) {
	g := graph.Path(4, true) // 0→1→2→3
	idx, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	before := idx.Ledger()
	// 0→2 is already implied by the closure: |∆O| = 0.
	if err := idx.InsertEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	after := idx.Ledger()
	if after.ChangedPairs != before.ChangedPairs {
		t.Fatalf("redundant insert changed %d pairs", after.ChangedPairs-before.ChangedPairs)
	}
	if after.WorkWords != before.WorkWords {
		t.Fatalf("redundant insert did %d words of work", after.WorkWords-before.WorkWords)
	}
	if after.Updates != before.Updates+1 {
		t.Fatal("update not counted")
	}
}

func TestChangedPairsCountedExactly(t *testing.T) {
	// Two disjoint paths 0→1 and 2→3; inserting 1→2 connects
	// {0,1} × {2,3}: exactly 4 new pairs.
	g := graph.New(4, true)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 3)
	idx, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.InsertEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if got := idx.Ledger().ChangedPairs; got != 4 {
		t.Fatalf("ChangedPairs = %d, want 4", got)
	}
	if got := idx.Ledger().Changed(); got != 5 { // |∆D|=1 + |∆O|=4
		t.Fatalf("Changed = %d, want 5", got)
	}
}

func TestLocalizedChangeCostIndependentOfGraphSize(t *testing.T) {
	// The §4(7) claim: cost tracks |CHANGED|, not |D|. Build two graphs of
	// very different sizes, make the same tiny localized change (an edge
	// between two fresh isolated vertices), and compare the incremental
	// work; it must not scale with n.
	work := func(n int) int64 {
		g := graph.New(n, true)
		// A long path occupying vertices 4..n-1 (bulk of the graph).
		for v := 4; v+1 < n; v++ {
			g.MustAddEdge(v, v+1)
		}
		idx, err := New(g)
		if err != nil {
			t.Fatal(err)
		}
		base := idx.Ledger().WorkWords
		if err := idx.InsertEdge(0, 1); err != nil { // isolated pair
			t.Fatal(err)
		}
		return idx.Ledger().WorkWords - base
	}
	w1, w2 := work(64), work(1024)
	// Work is measured in words; one row of the 1024-vertex graph is 16
	// words vs 1 word for 64 vertices, so allow the word-size factor but
	// nothing like the 16x row-count factor.
	if w2 > 20*w1 {
		t.Fatalf("localized change cost scaled with |D|: %d → %d words", w1, w2)
	}
	// And it must be microscopic next to recomputation.
	g := graph.New(1024, true)
	idx, _ := New(g)
	_ = idx.InsertEdge(0, 1)
	if idx.Ledger().WorkWords*100 > idx.RecomputeCostWords() {
		t.Fatalf("incremental work %d not far below recompute %d",
			idx.Ledger().WorkWords, idx.RecomputeCostWords())
	}
}

func TestQueryAndInsertValidation(t *testing.T) {
	idx, err := New(graph.Path(3, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Reach(-1, 0); err == nil {
		t.Error("negative query accepted")
	}
	if _, err := idx.Reach(0, 3); err == nil {
		t.Error("out-of-range query accepted")
	}
	if err := idx.InsertEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := idx.InsertEdge(0, 9); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if idx.n != 3 {
		t.Errorf("n = %d", idx.n)
	}
}

func TestNewRejectsUndirected(t *testing.T) {
	if _, err := New(graph.Path(3, false)); err == nil {
		t.Fatal("undirected graph accepted")
	}
}

func TestInitialClosureCorrect(t *testing.T) {
	g := graph.RandomDirected(20, 50, 9)
	idx, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.VerifyAgainstRecompute(); err != nil {
		t.Fatal(err)
	}
}
