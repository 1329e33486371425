package graph

import (
	"bytes"
	"fmt"
	"testing"
)

// closureRef is the test-only reference closure: one Graph.BFS per vertex,
// one bool per pair. It shares nothing with the kernel — not SCC, not the word
// rows, not the CSR.
func closureRef(g *Graph) [][]bool {
	reach := make([][]bool, g.N())
	for u := range reach {
		_, dist := g.BFS(u)
		reach[u] = make([]bool, g.N())
		for v, d := range dist {
			reach[u][v] = d >= 0
		}
	}
	return reach
}

// denseRef is the reference emitter of the wire layout: bit u·n+v at byte
// (u·n+v)/8, LSB first, set one pair at a time.
func denseRef(reach [][]bool) []byte {
	n := len(reach)
	b := make([]byte, (n*n+7)/8)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if reach[u][v] {
				bit := u*n + v
				b[bit/8] |= 1 << (bit % 8)
			}
		}
	}
	return b
}

// checkClosure holds one graph's kernel closure to the reference on every
// ⟨u,v⟩, on RowEqual, on the zero padding AppendDense relies on, and on the
// wire bytes.
func checkClosure(t *testing.T, name string, g *Graph) {
	t.Helper()
	n := g.N()
	c, want := NewClosure(g), closureRef(g)
	if c.N() != n {
		t.Fatalf("%s: closure over %d vertices, graph has %d", name, c.N(), n)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if got := c.Reach(u, v); got != want[u][v] {
				t.Fatalf("%s: Reach(%d,%d) = %v, per-vertex reference says %v", name, u, v, got, want[u][v])
			}
		}
		if r := uint(n & 63); r != 0 && c.Row(u)[n>>6]>>r != 0 {
			t.Fatalf("%s: row %d has bits set at or above n", name, u)
		}
	}
	for u := 0; u < n; u++ {
		for _, v := range []int{0, u / 2, n - 1} {
			same := true
			for x := 0; x < n; x++ {
				same = same && want[u][x] == want[v][x]
			}
			if got := c.RowEqual(u, v); got != same {
				t.Fatalf("%s: RowEqual(%d,%d) = %v, reference rows equal: %v", name, u, v, got, same)
			}
		}
	}
	if got := c.AppendDense(nil); !bytes.Equal(got, denseRef(want)) {
		t.Fatalf("%s: AppendDense differs from the bit-at-a-time layout", name)
	}
}

// closureShapes are the graph families of TestClosureMatchesReference at n
// vertices (a family that cannot make exactly n makes none).
func closureShapes(n int) map[string]*Graph {
	shapes := map[string]*Graph{
		"random-directed": RandomDirected(n, 2*n, int64(n)),
		"random-dense":    RandomDirected(n, 8*n, int64(n)+1),
		"random-sparse":   RandomDirected(n, n/2, int64(n)+2),
		"random-dag":      RandomDAG(n, 3*n, int64(n)+3),
		"connected-undir": RandomConnectedUndirected(n, n/2, int64(n)+4),
		"path-directed":   Path(n, true),
		"path-undirected": Path(n, false),
		"edgeless":        New(n, true),
		"edgeless-undir":  New(n, false),
	}
	cycle := New(n, true)
	for v := 0; v < n && n > 1; v++ {
		cycle.MustAddEdge(v, (v+1)%n)
	}
	shapes["one-cycle"] = cycle
	for c := 2; c*2 <= n; c++ {
		if n%c == 0 {
			shapes["community"] = CommunityGraph(c, n/c, c, int64(n)+5)
			break
		}
	}
	return shapes
}

// TestClosureMatchesReference: every ⟨u,v⟩ of every shape at the sizes where
// a row is empty, one partial word, exactly one word, one word and a bit, and
// several words — the condensation kernel against one BFS per vertex.
func TestClosureMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		for name, g := range closureShapes(n) {
			checkClosure(t, fmt.Sprintf("%s/n=%d", name, n), g)
		}
	}
	for name, g := range kernelGraphs() {
		checkClosure(t, name, g)
	}
}

// TestClosureIgnoresNormalization: a graph handed over with unsorted,
// repeated arcs closes like its normalized self (SCC normalizes first).
func TestClosureIgnoresNormalization(t *testing.T) {
	g := New(70, true)
	for _, e := range [][2]int{{69, 3}, {3, 69}, {3, 1}, {69, 3}, {1, 0}, {5, 69}, {3, 1}} {
		g.MustAddEdge(e[0], e[1])
	}
	checkClosure(t, "unnormalized", g)
}

// TestAppendDense: the emitter against the bit-at-a-time loop at every row
// alignment — n a multiple of 8, of 64, one off either, and 0 — appended
// behind a prefix that must survive.
func TestAppendDense(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 130} {
		for _, g := range []*Graph{RandomDirected(n, 2*n, int64(n)), RandomDAG(n, 4*n, int64(n)), New(n, true), Path(n, false)} {
			want := append([]byte("prefix"), denseRef(closureRef(g))...)
			got := NewClosure(g).AppendDense([]byte("prefix"))
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d: AppendDense wrote\n%x\nbit-at-a-time loop\n%x", n, got, want)
			}
		}
	}
}

func TestCheckClosureSize(t *testing.T) {
	if err := CheckClosureSize(MaxClosureVertices); err != nil {
		t.Fatalf("the limit itself refused: %v", err)
	}
	if err := CheckClosureSize(MaxClosureVertices + 1); err == nil {
		t.Fatal("one vertex over the limit accepted")
	}
}

// FuzzClosure: any bytes Decode accepts close, under the kernel, to exactly
// what one BFS per vertex finds, with RowEqual and the wire bytes consistent.
func FuzzClosure(f *testing.F) {
	for _, g := range kernelGraphs() {
		f.Add(g.Encode())
	}
	f.Add([]byte{3, 1, 3, 2, 1, 0, 2, 2, 1}) // unsorted, with a repeat
	f.Fuzz(func(t *testing.T, b []byte) {
		g, err := Decode(b)
		if err != nil || g.N() > 1<<8 {
			return
		}
		checkClosure(t, fmt.Sprintf("graph %x", b), g)
	})
}

// closurePerVertex is the benchmark's reference row: one bitset search per
// vertex straight into the word rows (CSR.ReachFrom), with none of
// closureRef's per-call allocations — the O(|V|·(|V|+|E|)) build at its best,
// not a strawman.
func closurePerVertex(g *Graph) *Closure {
	n := g.N()
	c := &Closure{n: n, words: (n + 63) / 64, bits: make([]uint64, n*((n+63)/64))}
	csr := g.Freeze()
	for s := 0; s < n; s++ {
		csr.ReachFrom(s, c.Row(s))
	}
	return c
}

func TestClosurePerVertexAgrees(t *testing.T) {
	for name, g := range kernelGraphs() {
		if !bytes.Equal(closurePerVertex(g).AppendDense(nil), NewClosure(g).AppendDense(nil)) {
			t.Fatalf("%s: the benchmark's per-vertex build and the kernel differ", name)
		}
	}
}

// BenchmarkClosure: the kernel beside the per-vertex build, on
// the benchmark workload's graph (random), an acyclic one (every vertex its
// own component, dense condensation), a sparse one (a per-vertex search
// touches little, so this is the row that would show a loss), clustered,
// the long path (|V| components, one successor each) and undirected (a few
// components, every row a copy).
func BenchmarkClosure(b *testing.B) {
	for _, shape := range []struct {
		name string
		g    *Graph
	}{
		{"random", RandomDirected(4096, 16384, 1)},
		{"dag", RandomDAG(4096, 16384, 1)},
		{"sparse", RandomDirected(4096, 4096, 1)},
		{"community", CommunityGraph(8, 256, 512, 1)},
		{"path", Path(8192, true)},
		{"undirected", RandomConnectedUndirected(4096, 4096, 1)},
	} {
		for _, build := range []struct {
			name string
			f    func(*Graph) *Closure
		}{{"kernel", NewClosure}, {"per-vertex", closurePerVertex}} {
			b.Run(shape.name+"/"+build.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if build.f(shape.g).N() != shape.g.N() {
						b.Fatal("vertex count")
					}
				}
			})
		}
	}
}

// BenchmarkClosureEmit: the wire-layout emitter on the workload's closure
// (2 MB out), aligned rows and — one vertex fewer — rows that start mid-byte.
func BenchmarkClosureEmit(b *testing.B) {
	for _, n := range []int{4096, 4095} {
		c := NewClosure(RandomDirected(n, 4*n, 1))
		buf := make([]byte, 0, (n*n+7)/8)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(cap(buf)))
			for i := 0; i < b.N; i++ {
				if len(c.AppendDense(buf)) != cap(buf) {
					b.Fatal("length")
				}
			}
		})
	}
}
