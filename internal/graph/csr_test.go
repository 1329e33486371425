package graph

import (
	"math"
	"testing"
)

// kernelGraphs are the shapes the kernel is held to Graph.BFS on: random,
// acyclic, clustered, undirected (one shared direction), the long-diameter
// worst case in both orientations, and the degenerate ones — no edges, a
// single vertex, sources that lead nowhere, targets nothing leads to.
func kernelGraphs() map[string]*Graph {
	star := New(12, true) // 0 has in-degree 0, every leaf out-degree 0
	for v := 1; v < 12; v++ {
		star.MustAddEdge(0, v)
	}
	sink := New(12, true) // the mirror image
	for v := 1; v < 12; v++ {
		sink.MustAddEdge(v, 0)
	}
	return map[string]*Graph{
		"random-directed":   RandomDirected(80, 160, 1),
		"random-sparse":     RandomDirected(80, 50, 2),
		"random-dag":        RandomDAG(70, 140, 3),
		"community":         CommunityGraph(4, 16, 6, 4),
		"connected-undir":   RandomConnectedUndirected(60, 30, 5),
		"path-directed":     Path(65, true),
		"path-undirected":   Path(65, false),
		"edgeless-directed": New(9, true),
		"edgeless-undir":    New(9, false),
		"single-vertex":     New(1, true),
		"out-star":          star,
		"in-star":           sink,
	}
}

// TestReachableMatchesBFS: every ⟨u,v⟩ (u == v included) of every shape, the
// kernel against the single-source BFS it replaces on the prepared path, and
// the bulk row/column reads against the same distances.
func TestReachableMatchesBFS(t *testing.T) {
	for name, g := range kernelGraphs() {
		c := g.Freeze()
		n := g.N()
		if c.N() != n {
			t.Fatalf("%s: CSR has %d vertices, graph %d", name, c.N(), n)
		}
		words := (n + 63) / 64
		cols := make([][]uint64, n)
		for v := range cols {
			cols[v] = make([]uint64, words)
			c.ReachTo(v, cols[v])
		}
		for u := 0; u < n; u++ {
			_, dist := g.BFS(u)
			row := make([]uint64, words)
			c.ReachFrom(u, row)
			for v := 0; v < n; v++ {
				want := dist[v] >= 0
				if got := c.Reachable(u, v); got != want {
					t.Fatalf("%s: Reachable(%d,%d) = %v, BFS says %v", name, u, v, got, want)
				}
				if got := row[v>>6]&(1<<(v&63)) != 0; got != want {
					t.Fatalf("%s: ReachFrom(%d) bit %d = %v, BFS says %v", name, u, v, got, want)
				}
				if got := cols[v][u>>6]&(1<<(u&63)) != 0; got != want {
					t.Fatalf("%s: ReachTo(%d) bit %d = %v, BFS says %v", name, v, u, got, want)
				}
			}
		}
	}
}

// TestFreezeIsIndependentOfTheGraph: a CSR keeps answering for the graph it
// was frozen from after that graph is mutated.
func TestFreezeIsIndependentOfTheGraph(t *testing.T) {
	g, err := Decode(Path(4, true).Encode()) // lists cut from one backing array
	if err != nil {
		t.Fatal(err)
	}
	c := g.Freeze()
	if err := g.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(3, 0)
	if !c.Reachable(0, 3) || c.Reachable(3, 0) {
		t.Fatal("CSR changed with the graph it was frozen from")
	}
	if g.Reachable(0, 3) || !g.Reachable(3, 0) {
		t.Fatal("graph mutation lost")
	}
}

// TestReachableZeroAllocs: once the pool holds a scratch, a query allocates
// nothing — hit, miss, or the whole-graph worst case.
func TestReachableZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	for name, g := range map[string]*Graph{
		"random": RandomDirected(2048, 8192, 1),
		"path":   Path(2048, true),
	} {
		c := g.Freeze()
		n := g.N()
		c.Reachable(0, n-1) // warm the pool
		i := 0
		if allocs := testing.AllocsPerRun(200, func() {
			c.Reachable(i%n, (i*31+n-1)%n)
			i++
		}); allocs != 0 {
			t.Errorf("%s: %v allocations per query, want 0", name, allocs)
		}
	}
}

// TestReachableEpochWrap: marks left by the last searches before the stamp
// space wraps must not read as live afterwards.
func TestReachableEpochWrap(t *testing.T) {
	g := RandomDirected(64, 128, 9)
	c := g.Freeze()
	n := g.N()
	for _, start := range []uint32{math.MaxUint32 - 2, math.MaxUint32 - 3} {
		s := c.pool.Get().(*scratch)
		s.epoch = start
		// Every mark carries a stamp the post-wrap searches will hand out
		// again (1 and 2): only a clear on wrap keeps them from being read
		// as "already visited" or "the other side".
		for x := range s.mark {
			s.mark[x] = uint32(1 + x%2)
		}
		for round := 0; round < 4; round++ {
			u, v := (round*17+3)%n, (round*23+6)%n
			_, dist := g.BFS(u)
			if got := c.search(s, u, v); got != (dist[v] >= 0) {
				t.Fatalf("start %#x round %d: search(%d,%d) = %v", start, round, u, v, got)
			}
		}
		if s.epoch >= start {
			t.Fatalf("start %#x: the stamp never wrapped (epoch %#x)", start, s.epoch)
		}
	}
}

// FuzzReachable: any bytes Decode accepts, frozen, must answer a few pairs
// exactly as Graph.BFS does.
func FuzzReachable(f *testing.F) {
	for _, g := range kernelGraphs() {
		f.Add(g.Encode(), uint16(0), uint16(g.N()-1))
	}
	f.Add([]byte{3, 1, 3, 2, 1, 0, 2, 2, 1}, uint16(0), uint16(1)) // unsorted, with a repeat
	f.Fuzz(func(t *testing.T, b []byte, a, z uint16) {
		g, err := Decode(b)
		if err != nil || g.N() == 0 || g.N() > 1<<12 {
			return
		}
		c := g.Freeze()
		n := g.N()
		for _, p := range [][2]int{{int(a) % n, int(z) % n}, {int(z) % n, int(a) % n}, {0, n - 1}, {n / 2, n / 3}} {
			_, dist := g.BFS(p[0])
			if got := c.Reachable(p[0], p[1]); got != (dist[p[1]] >= 0) {
				t.Fatalf("Reachable(%d,%d) = %v, BFS says %v (graph %x)", p[0], p[1], got, dist[p[1]] >= 0, b)
			}
		}
	})
}

// The kernel's own number, next to the naive whole-BFS it replaces. The
// random and community graphs are where meeting in the middle pays; the path
// is the long-diameter case it cannot shorten (both sides walk ~n/2 levels).
var benchSink bool

func benchPairs(n int) [][2]int {
	pairs := make([][2]int, 1024)
	for i := range pairs {
		pairs[i] = [2]int{(i * 7919) % n, (i*104729 + n/2) % n}
	}
	return pairs
}

func benchmarkReachable(b *testing.B, g *Graph) {
	pairs := benchPairs(g.N())
	b.Run("kernel", func(b *testing.B) {
		c := g.Freeze()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			benchSink = c.Reachable(p[0], p[1])
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			benchSink = g.Reachable(p[0], p[1])
		}
	})
}

func BenchmarkReachableRandom(b *testing.B) {
	benchmarkReachable(b, RandomDirected(16384, 65536, 1))
}

func BenchmarkReachableCommunity(b *testing.B) {
	benchmarkReachable(b, CommunityGraph(64, 256, 2048, 1))
}

func BenchmarkReachablePath(b *testing.B) {
	benchmarkReachable(b, Path(16384, true))
}

func BenchmarkDecode(b *testing.B) {
	enc := RandomDirected(16384, 65536, 1).Encode()
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFreeze(b *testing.B) {
	g := RandomDirected(16384, 65536, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Freeze().N() != g.N() {
			b.Fatal("vertex count")
		}
	}
}
