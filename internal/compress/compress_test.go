package compress

import (
	"math/rand"
	"sync"
	"testing"

	"pitract/internal/graph"
)

func TestCompressPreservesAllReachabilityQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(40)
		g := graph.RandomDirected(n, 3*n, int64(trial))
		c, err := Compress(g)
		if err != nil {
			t.Fatal(err)
		}
		truth := graph.NewClosure(g)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				got, err := c.Reach(u, v)
				if err != nil {
					t.Fatal(err)
				}
				if got != truth.Reach(u, v) {
					t.Fatalf("trial %d: query (%d,%d): compressed %v, truth %v", trial, u, v, got, !got)
				}
			}
		}
	}
}

func TestCompressCommunityGraphsShrink(t *testing.T) {
	g := graph.CommunityGraph(10, 40, 30, 7)
	c, err := Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	vr, er := c.Ratio(g)
	if vr > 0.25 {
		t.Errorf("vertex ratio %.2f: SCC condensation should collapse communities", vr)
	}
	if er > 1.0 {
		t.Errorf("edge ratio %.2f > 1", er)
	}
	// And answers stay exact.
	truth := graph.NewClosure(g)
	rng := rand.New(rand.NewSource(1))
	for q := 0; q < 500; q++ {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		got, _ := c.Reach(u, v)
		if got != truth.Reach(u, v) {
			t.Fatalf("community query (%d,%d) wrong", u, v)
		}
	}
}

func TestCompressTwinMerging(t *testing.T) {
	// A DAG with parallel twin branches: 0 → {1,2,3} → 4. Vertices 1,2,3
	// have identical in/out neighbourhoods and must merge.
	g := graph.New(5, true)
	for _, mid := range []int{1, 2, 3} {
		g.MustAddEdge(0, mid)
		g.MustAddEdge(mid, 4)
	}
	c, err := Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	if c.Dc.N() != 3 {
		t.Fatalf("compressed to %d vertices, want 3 (source, twin class, sink)", c.Dc.N())
	}
	if c.Map[1] != c.Map[2] || c.Map[2] != c.Map[3] {
		t.Fatalf("twins not merged: map = %v", c.Map)
	}
	// Twins must not claim to reach one another.
	for _, pair := range [][2]int{{1, 2}, {2, 1}, {1, 3}} {
		if got, _ := c.Reach(pair[0], pair[1]); got {
			t.Errorf("merged twins %v report reachability", pair)
		}
	}
	// But the path through them survives.
	if got, _ := c.Reach(0, 4); !got {
		t.Error("path 0→4 lost")
	}
}

func TestCompressSCCMatesStayReachable(t *testing.T) {
	// A 4-cycle is one SCC; every ordered pair must stay reachable.
	g := graph.New(4, true)
	for i := 0; i < 4; i++ {
		g.MustAddEdge(i, (i+1)%4)
	}
	c, err := Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	if c.Dc.N() != 1 {
		t.Fatalf("cycle compressed to %d vertices, want 1", c.Dc.N())
	}
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if got, _ := c.Reach(u, v); !got {
				t.Fatalf("SCC pair (%d,%d) lost", u, v)
			}
		}
	}
}

func TestCompressRejectsUndirected(t *testing.T) {
	if _, err := Compress(graph.Path(3, false)); err == nil {
		t.Fatal("undirected graph accepted")
	}
}

func TestCompressQueryValidation(t *testing.T) {
	c, err := Compress(graph.Path(3, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reach(-1, 0); err == nil {
		t.Error("negative vertex accepted")
	}
	if _, err := c.Reach(0, 9); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if got, _ := c.Reach(1, 1); !got {
		t.Error("reflexive reachability lost")
	}
}

func TestCompressIdempotentShape(t *testing.T) {
	// Compressing an already-compressed shape changes nothing further.
	g := graph.RandomDAG(30, 60, 3)
	c1, err := Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Compress(c1.Dc)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Dc.N() != c1.Dc.N() || c2.Dc.M() != c1.Dc.M() {
		t.Fatalf("second compression changed shape: %d/%d → %d/%d",
			c1.Dc.N(), c1.Dc.M(), c2.Dc.N(), c2.Dc.M())
	}
}

// TestCompressBuildsClosureOnFirstProbe: Compress itself allocates no |Vc|²
// closure — the labels scheme compresses registered graphs of any size and
// never probes — and concurrent first probes build it exactly once.
func TestCompressBuildsClosureOnFirstProbe(t *testing.T) {
	g := graph.RandomDAG(60, 150, 11)
	c, err := Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	if c.closure != nil {
		t.Fatal("Compress built the closure before any probe")
	}
	truth := graph.NewClosure(g)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for u := w; u < g.N(); u += 4 {
				for v := 0; v < g.N(); v++ {
					if got, err := c.Reach(u, v); err != nil || got != truth.Reach(u, v) {
						t.Errorf("query (%d,%d): compressed %v (%v), truth %v", u, v, got, err, truth.Reach(u, v))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
