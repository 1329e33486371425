package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
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

// AppendDense appends the n×n closure in the dense layout Π had before it was
// stored over the condensation — n·n bits, row-major with no padding between
// rows (row u starts at bit u·n), bit i at byte i/8, LSB first, ⌈n²/8⌉ bytes.
// It lives here, with the bit-at-a-time denseRef it is held to, as the
// word-wide oracle for the expanded matrix. Rows are streamed through a 64-bit
// accumulator, so a row that starts mid-byte (n % 8 ≠ 0) costs a shift per
// word.
func (c *Closure) AppendDense(dst []byte) []byte {
	dst = slices.Grow(dst, (c.n*c.n+7)/8)
	tail := uint(c.n & 63) // valid bits of a row's last word; 0 = all 64
	var acc uint64         // pending bits, LSB first
	var pending uint       // how many, always < 64
	for u := 0; u < c.n; u++ {
		row := c.Row(u)
		for i, w := range row {
			k := uint(64)
			if i == len(row)-1 && tail != 0 {
				k = tail
			}
			acc |= w << pending
			if pending+k < 64 {
				pending += k
				continue
			}
			dst = binary.LittleEndian.AppendUint64(dst, acc)
			acc = w >> (64 - pending) // a shift by 64 is 0: nothing was left over
			pending += k - 64
		}
	}
	for ; pending > 0; pending -= min(pending, 8) {
		dst = append(dst, byte(acc))
		acc >>= 8
	}
	return dst
}

// condensedRef is the reference emitter of the condensed wire form, from the
// per-vertex reference alone: classes are mutual reachability, numbered by
// smallest member; bit d of row c says c's smallest member reaches d's.
func condensedRef(reach [][]bool) []byte {
	n := len(reach)
	class := make([]int, n)
	var smallest []int // smallest[c] = smallest member of class c
	for v := 0; v < n; v++ {
		class[v] = -1
		for c, s := range smallest {
			if reach[v][s] && reach[s][v] {
				class[v] = c
			}
		}
		if class[v] < 0 {
			class[v] = len(smallest)
			smallest = append(smallest, v)
		}
	}
	k := len(smallest)
	words := (k + 63) / 64
	b := binary.LittleEndian.AppendUint32(nil, uint32(k))
	for _, c := range class {
		b = binary.LittleEndian.AppendUint16(b, uint16(c))
	}
	rows := make([]byte, 8*k*words)
	for c, s := range smallest {
		for d, t := range smallest {
			if reach[s][t] {
				rows[8*c*words+d/8] |= 1 << (d % 8)
			}
		}
	}
	return append(b, rows...)
}

// checkCondensed holds one graph's condensed closure to the reference: Reach,
// both bulk reads (with nothing set at or above n), the wire bytes, and the
// round trip through the decoder and the undecoded probe.
func checkCondensed(t *testing.T, name string, g *Graph, want [][]bool) {
	t.Helper()
	n := g.N()
	c, err := NewCondensedClosure(g)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wire := c.AppendWire([]byte("prefix"))
	if len(wire) != 6+c.WireLen() || !bytes.Equal(wire[6:], condensedRef(want)) {
		t.Fatalf("%s: wire form differs from the per-vertex reference's", name)
	}
	wire = wire[6:]
	if size, err := CondensedClosureLen(append(slices.Clone(wire), "behind"...), n); err != nil || size != len(wire) {
		t.Fatalf("%s: CondensedClosureLen = %d, %v; the form is %d bytes", name, size, err, len(wire))
	}
	dec, err := DecodeCondensedClosure(wire, n)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if !bytes.Equal(dec.AppendWire(nil), wire) {
		t.Fatalf("%s: encode → decode → encode moved bytes", name)
	}
	if c.N() != n || dec.N() != n || dec.Classes() != c.Classes() {
		t.Fatalf("%s: %d/%d vertices and %d/%d classes, graph has %d vertices", name, c.N(), dec.N(), c.Classes(), dec.Classes(), n)
	}
	words := (n + 63) / 64
	for _, cc := range []*CondensedClosure{c, dec} {
		for u := 0; u < n; u++ {
			row, col := make([]uint64, words), make([]uint64, words)
			cc.ReachFrom(u, row)
			cc.ReachTo(u, col)
			for v := 0; v < n; v++ {
				bit := func(set []uint64) bool { return set[v>>6]>>(v&63)&1 != 0 }
				if cc.Reach(u, v) != want[u][v] || bit(row) != want[u][v] || bit(col) != want[v][u] {
					t.Fatalf("%s: (%d,%d): reference %v/%v, Reach %v, ReachFrom bit %v, ReachTo bit %v",
						name, u, v, want[u][v], want[v][u], cc.Reach(u, v), bit(row), bit(col))
				}
				if (cc.Class(u) == cc.Class(v)) != (want[u][v] && want[v][u]) {
					t.Fatalf("%s: vertices %d and %d in classes %d and %d", name, u, v, cc.Class(u), cc.Class(v))
				}
			}
			if r := uint(n & 63); r != 0 && (row[n>>6]|col[n>>6])>>r != 0 {
				t.Fatalf("%s: bulk read of vertex %d set bits at or above n", name, u)
			}
		}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if got, err := ProbeCondensedClosure(wire, n, u, v); err != nil || got != want[u][v] {
				t.Fatalf("%s: undecoded probe (%d,%d) = %v, %v; reference %v", name, u, v, got, err, want[u][v])
			}
		}
	}
}

// checkClosure holds one graph's kernel closure to the reference on every
// ⟨u,v⟩, on RowEqual, on the zero padding above n, and on the dense bytes —
// the expanded matrix — then the condensed value it is expanded from.
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
	checkCondensed(t, name, g, want)
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
// several words — the condensation kernel against one BFS per vertex, as the
// expanded matrix and as the condensed value (one-cycle is k = 1, the DAG and
// the paths k = n, the random shapes a k off every word boundary).
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

// TestCheckClosureSize: the cap is on classes. NewCondensedClosure refuses
// edgeless vertices over it from |V| − |E| alone, and a path of one vertex
// more than the cap — |V| − |E| = 1 — by its class count after SCC.
func TestCheckClosureSize(t *testing.T) {
	if err := checkClosureSize(MaxClosureVertices); err != nil {
		t.Fatalf("the limit itself refused: %v", err)
	}
	if err := checkClosureSize(MaxClosureVertices + 1); err == nil {
		t.Fatal("one class over the limit accepted")
	}
	for name, g := range map[string]*Graph{
		"edgeless": New(MaxClosureVertices+1, true),
		"path":     Path(MaxClosureVertices+1, true),
	} {
		if _, err := NewCondensedClosure(g); err == nil {
			t.Fatalf("%s: %d classes closed", name, g.N())
		}
	}
	if c, err := NewCondensedClosure(Path(MaxClosureVertices+1, false)); err != nil || c.Classes() != 1 {
		t.Fatalf("an undirected path over the vertex count of the cap is one class: %v", err)
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

// BenchmarkCondensedClosure: what the serving path runs on the workload's
// graph — build, emit, decode — beside the size of what it emits.
func BenchmarkCondensedClosure(b *testing.B) {
	g := RandomDirected(4096, 16384, 1)
	c, err := NewCondensedClosure(g)
	if err != nil {
		b.Fatal(err)
	}
	wire := c.AppendWire(nil)
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewCondensedClosure(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("emit", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(wire)))
		for i := 0; i < b.N; i++ {
			if len(c.AppendWire(wire[:0])) != len(wire) {
				b.Fatal("length")
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(wire)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeCondensedClosure(wire, g.N()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
