package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"pitract/internal/graph/reachref"
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
// per-vertex reference alone: reachref's classes and rows behind k and the
// packed ids.
func condensedRef(reach [][]bool) []byte {
	class, k := reachref.Classes(reach)
	return wireRef(reach, class, k)
}

// wireRef emits the wire form of the given classes: k, the packed ids, and
// reachref's rows over them.
func wireRef(reach [][]bool, class []int, k int) []byte {
	b := append(binary.LittleEndian.AppendUint32(nil, uint32(k)), packedRef(class, k)...)
	return append(b, reachref.Rows(reach, class, k)...)
}

// stronglyConnectedRef emits the form the closure had over strongly connected
// classes alone — mutual reachability, numbered by smallest member — which a
// graph with nothing to merge must still emit byte for byte.
func stronglyConnectedRef(reach [][]bool) []byte {
	class := make([]int, len(reach))
	var smallest []int
	for v := range class {
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
	return wireRef(reach, class, len(smallest))
}

// packedRef is the reference emitter of the packed class ids: bits(k−1) bits
// per id, set one bit at a time, in whole 8-byte words.
func packedRef(class []int, k int) []byte {
	w := 0
	for 1<<w < k {
		w++
	}
	b := make([]byte, 8*((len(class)*w+63)/64))
	for v, c := range class {
		for i := 0; i < w; i++ {
			if c>>i&1 != 0 {
				bit := v*w + i
				b[bit/8] |= 1 << (bit % 8)
			}
		}
	}
	return b
}

// checkCondensed holds one graph's condensed closure to the reference: Reach,
// both bulk reads (with nothing set at or above n), the classes, the wire
// bytes — the strongly connected classes' bytes when nothing merges — and the
// round trip through the decoder and the undecoded probe.
func checkCondensed(t *testing.T, name string, g *Graph, want [][]bool) {
	t.Helper()
	n := g.N()
	c, err := g.Freeze().CondensedClosure()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wire := c.AppendWire([]byte("prefix"))
	if len(wire) != 6+c.WireLen() || !bytes.Equal(wire[6:], condensedRef(want)) {
		t.Fatalf("%s: wire form differs from the per-vertex reference's", name)
	}
	wire = wire[6:]
	class, k := reachref.Classes(want)
	if scc := stronglyConnectedRef(want); k == int(binary.LittleEndian.Uint32(scc)) && !bytes.Equal(wire, scc) {
		t.Fatalf("%s: nothing merges, yet the form differs from the strongly connected classes'", name)
	}
	if framed, err := FrameCondensedClosure(append(slices.Clone(wire), "behind"...), n); err != nil || !bytes.Equal(framed, wire) {
		t.Fatalf("%s: FrameCondensedClosure cut %d bytes, %v; the form is %d bytes", name, len(framed), err, len(wire))
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
				if (cc.Class(u) == cc.Class(v)) != (class[u] == class[v]) {
					t.Fatalf("%s: vertices %d and %d in classes %d and %d, reference %d and %d", name, u, v, cc.Class(u), cc.Class(v), class[u], class[v])
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
// ⟨u,v⟩, on the zero padding above n, and on the dense bytes —
// the expanded matrix — then the condensed value it is expanded from.
func checkClosure(t *testing.T, name string, g *Graph) {
	t.Helper()
	n := g.N()
	c, want := NewClosure(g), closureRef(g)
	if c.n != n {
		t.Fatalf("%s: closure over %d vertices, graph has %d", name, c.n, n)
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

// TestClosureMergesAcyclicClasses pins the quotient on a hand-built graph:
// two sources into one strongly connected component share a class, and so do
// two sinks out of it; two vertices with the same successor but different
// ancestors stay apart. Inside a merged class a vertex reaches itself and not
// its class-mate, in Reach, in both bulk reads and in the undecoded probe; the
// class's own row bit is clear while a component's and a lone vertex's are
// set.
func TestClosureMergesAcyclicClasses(t *testing.T) {
	// 0, 3 → {1, 2} → 4, 5; 6 → 7 → 9 and 8 → 9.
	g := New(10, true)
	for _, e := range [][2]int{{0, 1}, {3, 1}, {1, 2}, {2, 1}, {2, 4}, {2, 5}, {6, 7}, {7, 9}, {8, 9}} {
		g.MustAddEdge(e[0], e[1])
	}
	c, err := g.Freeze().CondensedClosure()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 1, 0, 2, 2, 3, 4, 5, 6}
	for v, cl := range want {
		if c.Class(v) != cl {
			t.Fatalf("vertex %d in class %d, want %d (classes %v)", v, c.Class(v), cl, want)
		}
	}
	if c.Classes() != 7 {
		t.Fatalf("%d classes, want 7", c.Classes())
	}
	wire := c.AppendWire(nil)
	for _, p := range []struct {
		u, v int
		want bool
	}{{0, 0, true}, {0, 3, false}, {3, 0, false}, {4, 5, false}, {5, 4, false}, {0, 5, true}, {1, 2, true}, {2, 1, true}, {7, 8, false}, {6, 9, true}} {
		probe, err := ProbeCondensedClosure(wire, g.N(), p.u, p.v)
		if c.Reach(p.u, p.v) != p.want || probe != p.want || err != nil {
			t.Fatalf("(%d,%d): Reach %v, probe %v %v; want %v", p.u, p.v, c.Reach(p.u, p.v), probe, err, p.want)
		}
	}
	set := func(f func(int, []uint64), v int) uint64 {
		row := make([]uint64, 1)
		f(v, row)
		return row[0]
	}
	if from := set(c.ReachFrom, 0); from != 1<<0|1<<1|1<<2|1<<4|1<<5 {
		t.Fatalf("ReachFrom(0) = %b, want 0, 1, 2, 4, 5 and not its class-mate 3", from)
	}
	if to := set(c.ReachTo, 5); to != 1<<0|1<<1|1<<2|1<<3|1<<5 {
		t.Fatalf("ReachTo(5) = %b, want 0, 1, 2, 3, 5 and not its class-mate 4", to)
	}
	if from := set(c.ReachFromClass, 0); from != 1<<1|1<<2|1<<4|1<<5 {
		t.Fatalf("ReachFromClass(0) = %b, want what both sources reach: 1, 2, 4, 5", from)
	}
	for cl, own := range []bool{false, true, false, true, true, true, true} {
		if got := c.rows[cl*c.words]>>cl&1 != 0; got != own {
			t.Fatalf("class %d's own bit is %v, want %v", cl, got, own)
		}
	}
}

// TestClosureNothingToMergeKeepsBytes: a graph whose classes are its
// strongly connected components emits the form it had before acyclic
// vertices merged, pinned as bytes: a chain through one component with a
// shortcut, where no two vertices share their descendants, and a graph where
// two do (0 and 1 both reach only 2) but their ancestors differ (3 → 0), so
// the ancestor columns are read and nothing merges.
func TestClosureNothingToMergeKeepsBytes(t *testing.T) {
	for _, c := range []struct {
		n      int
		edges  [][2]int
		pinned string
	}{
		{6, [][2]int{{0, 1}, {1, 2}, {2, 1}, {2, 3}, {0, 3}, {4, 0}, {3, 5}},
			"0500000048340200000000001700000000000000160000000000000014000000000000001f000000000000001000000000000000"},
		{4, [][2]int{{0, 2}, {1, 2}, {3, 0}},
			"04000000e4000000000000000500000000000000060000000000000004000000000000000d00000000000000"},
	} {
		g := New(c.n, true)
		for _, e := range c.edges {
			g.MustAddEdge(e[0], e[1])
		}
		cc, err := g.Freeze().CondensedClosure()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", cc.AppendWire(nil)); got != c.pinned {
			t.Fatalf("%v: wire form\n%s\nwant\n%s", c.edges, got, c.pinned)
		}
	}
}

// TestTranspose64: the block transpose against the bit-at-a-time one.
func TestTranspose64(t *testing.T) {
	var a, want [64]uint64
	for i := range a {
		a[i] = uint64(i+1) * 0x9E3779B97F4A7C15
	}
	for i := range 64 {
		for j := range 64 {
			want[j] |= a[i] >> j & 1 << i
		}
	}
	transpose64(&a)
	if a != want {
		t.Fatal("transpose64 differs from the bit-at-a-time transpose")
	}
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

// TestCheckClosureSize: the cap is on classes. CSR.CondensedClosure refuses
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
		if _, err := g.Freeze().CondensedClosure(); err == nil {
			t.Fatalf("%s: %d classes closed", name, g.N())
		}
	}
	if c, err := Path(MaxClosureVertices+1, false).Freeze().CondensedClosure(); err != nil || c.Classes() != 1 {
		t.Fatalf("an undirected path over the vertex count of the cap is one class: %v", err)
	}
}

// FuzzClosure: any bytes Decode accepts close, under the kernel, to exactly
// what one BFS per vertex finds, with the wire bytes consistent,
// and Class(u) = Class(v) exactly when u and v have the same strict ancestors
// and strict descendants (reachref); and any bytes, read as class ids,
// round-trip through the packed wire form at every id width an edge case
// lives at.
func FuzzClosure(f *testing.F) {
	for _, g := range kernelGraphs() {
		f.Add(g.Encode())
	}
	f.Add([]byte{3, 1, 3, 2, 1, 0, 2, 2, 1}) // unsorted, with a repeat
	f.Add(bytes.Repeat([]byte{0xff}, 130))   // ids at k−1 for every k
	f.Fuzz(func(t *testing.T, b []byte) {
		checkPacked(t, b)
		g, err := Decode(b)
		if err != nil || g.N() > 1<<8 {
			return
		}
		checkClosure(t, fmt.Sprintf("graph %x", b), g.Graph())
	})
}

// checkPacked reads b as class ids, two bytes each reduced below k, at k = 1,
// 2, 65 and 2¹⁶ — ids of 0, 1, 7 and 16 bits, so none, many to a word,
// straddling words, and the widest. AppendWire must emit packedRef's bits, and
// classAt read every id back. Where the rows fit (not at 2¹⁶ classes, whose
// rows are 512 MB) the whole form also decodes to itself and the undecoded
// probe agrees with the value.
func checkPacked(t *testing.T, b []byte) {
	t.Helper()
	for _, k := range []int{1, 2, 65, 1 << 16} {
		n := max(len(b)/2, 1)
		if k <= 65 {
			n = max(n, k)
		}
		c := &CondensedClosure{class: make([]uint16, n), k: k}
		ref := make([]int, n)
		for v := range ref {
			ref[v] = v % k
			if 2*v+1 < len(b) {
				ref[v] = int(binary.LittleEndian.Uint16(b[2*v:])) % k
			}
			c.class[v] = uint16(ref[v])
		}
		if k <= 65 {
			c.words = (k + 63) / 64
			c.rows = make([]uint64, k*c.words)
			for i := range c.rows {
				c.rows[i] = uint64(i+len(b)) * 0x9E3779B97F4A7C15
			}
		}
		wire, want := c.AppendWire(nil), packedRef(ref, k)
		ids := wire[4 : 4+len(want)]
		if !bytes.Equal(ids, want) {
			t.Fatalf("k=%d: packed ids %x, reference %x", k, ids, want)
		}
		for v, id := range ref {
			if got := classAt(ids, v, idWidth(k)); got != id {
				t.Fatalf("k=%d: vertex %d reads class %d, packed %d", k, v, got, id)
			}
		}
		if k > 65 {
			continue
		}
		dec, err := DecodeCondensedClosure(wire, n)
		if err != nil || len(wire) != c.WireLen() || !bytes.Equal(dec.AppendWire(nil), wire) {
			t.Fatalf("k=%d over %d vertices: decode %v, or the round trip moved bytes", k, n, err)
		}
		for u := 0; u < min(n, 40); u++ {
			for v := 0; v < min(n, 40); v++ {
				got, err := ProbeCondensedClosure(wire, n, u, v)
				if err != nil || got != c.Reach(u, v) || dec.Reach(u, v) != got {
					t.Fatalf("k=%d: (%d,%d) probes %v %v, value %v, decoded %v", k, u, v, got, err, c.Reach(u, v), dec.Reach(u, v))
				}
			}
		}
	}
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
					if build.f(shape.g).n != shape.g.N() {
						b.Fatal("vertex count")
					}
				}
			})
		}
	}
}

// BenchmarkCondensedClosure: what the serving path runs — build, emit,
// decode — on the benchmark workload's graph and on two larger random graphs
// of the same four arcs per vertex, where the SCC count (and so the kernel's
// rows) grows faster than the vertex count. Each leg reports the wire form's
// bytes and its class count beside the time, so the size a change moves is
// read off the same run. build starts from the CSR graph.Decode hands the
// serving path; before Decode returned one, the same legs timed Freeze and
// CSR.CondensedClosure on the generated graph, which is how a commit from
// then compares.
func BenchmarkCondensedClosure(b *testing.B) {
	for _, shape := range []struct {
		name string
		g    *Graph
	}{
		{"workload", RandomDirected(4096, 16384, 1)},
		{"random65536", RandomDirected(1<<16, 1<<18, 1)},
		{"random262144", RandomDirected(1<<18, 1<<20, 1)},
	} {
		g := shape.g.Freeze() // what Decode hands the serving path
		c, err := g.CondensedClosure()
		if err != nil {
			b.Fatal(err)
		}
		wire := c.AppendWire(nil)
		report := func(b *testing.B) {
			b.ReportMetric(float64(len(wire)), "wire-B")
			b.ReportMetric(float64(c.Classes()), "classes")
		}
		b.Run(shape.name+"/build", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.CondensedClosure(); err != nil {
					b.Fatal(err)
				}
			}
			report(b)
		})
		b.Run(shape.name+"/emit", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(wire)))
			for i := 0; i < b.N; i++ {
				if len(c.AppendWire(wire[:0])) != len(wire) {
					b.Fatal("length")
				}
			}
			report(b)
		})
		b.Run(shape.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(wire)))
			for i := 0; i < b.N; i++ {
				if _, err := DecodeCondensedClosure(wire, g.N()); err != nil {
					b.Fatal(err)
				}
			}
			report(b)
		})
	}
}
