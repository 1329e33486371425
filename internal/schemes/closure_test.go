package schemes

// The closure-matrix scheme's Π is built by CSR.CondensedClosure
// (condensation, word-wide row unions over the components, acyclic vertices
// with equal ancestors and descendants merged) and laid out by its
// AppendWire. These tests hold the bytes to a reference build — one search per
// vertex, one bit at a time — through Preprocess and through every maintained
// step, fuzz the decoder, and pin the class cap that sizes the rows before
// they are allocated.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/graph/reachref"
)

// condensedRef is the reference quotient, from one Graph.BFS per vertex:
// reachref's classes — equal strict ancestor and strict descendant sets,
// numbered by smallest member — and its rows, bit d of class row c (⌈k/64⌉
// words a row) set, one bit at a time, when every member of c reaches every
// member of d.
func condensedRef(g *graph.Graph) (class []int, k int, rows []byte) {
	reach := make([][]bool, g.N())
	for u := range reach {
		_, dist := g.BFS(u)
		reach[u] = make([]bool, g.N())
		for v, d := range dist {
			reach[u][v] = d >= 0
		}
	}
	class, k = reachref.Classes(reach)
	return class, k, reachref.Rows(reach, class, k)
}

// closureHeaderRef is the header of g's Π under the given layout bits.
func closureHeaderRef(g *graph.Graph, layout uint64) []byte {
	header := uint64(g.N()) | layout
	if !g.Directed() {
		header |= ClosureUndirectedFlag
	}
	return binary.BigEndian.AppendUint64(nil, header)
}

// closureBytesRef is the reference Π: the header, k, the class ids packed to
// w = ⌈log₂ k⌉ bits one bit at a time, the rows, then the arc file — the
// sorted key file of the ids u·n + v of g.Edges().
func closureBytesRef(g *graph.Graph) []byte {
	n := g.N()
	class, k, rows := condensedRef(g)
	w := 0
	for 1<<w < k {
		w++
	}
	ids := make([]byte, 8*((n*w+63)/64))
	for v, c := range class {
		for i := 0; i < w; i++ {
			if bit := v*w + i; c>>i&1 != 0 {
				ids[bit/8] |= 1 << (bit % 8)
			}
		}
	}
	var arcs []int64
	for _, e := range g.Edges() {
		arcs = append(arcs, int64(e[0]*n+e[1]))
	}
	file, err := keyFileBytes(arcs)
	if err != nil {
		panic(err)
	}
	b := binary.LittleEndian.AppendUint32(closureHeaderRef(g, closureLayout), uint32(k))
	return append(append(append(b, ids...), rows...), file...)
}

// uvarintClosureBytesRef emits the layout Π had before the arc file: no
// closureArcsFlag, a 2-byte class id per vertex, the rows, then the graph
// appendix as uvarint length ‖ graph.Encode.
func uvarintClosureBytesRef(g *graph.Graph) []byte {
	class, k, rows := condensedRef(g)
	b := binary.LittleEndian.AppendUint32(closureHeaderRef(g, ClosureGraphFlag|closureCondensedFlag), uint32(k))
	for _, c := range class {
		b = binary.LittleEndian.AppendUint16(b, uint16(c))
	}
	enc := g.Encode()
	return append(binary.AppendUvarint(append(b, rows...), uint64(len(enc))), enc...)
}

// denseClosureBytesRef emits the layouts Π had before it was stored over the
// condensation: the header (with the appendix flag or without), n² bits set
// one pair at a time, and the graph appendix when flagged.
func denseClosureBytesRef(g *graph.Graph, appendix bool) []byte {
	n := g.N()
	b := make([]byte, 8+(n*n+7)/8)
	header := uint64(n)
	if appendix {
		header |= ClosureGraphFlag
	}
	if !g.Directed() {
		header |= ClosureUndirectedFlag
	}
	binary.BigEndian.PutUint64(b, header)
	for u := 0; u < n; u++ {
		_, dist := g.BFS(u)
		for v := 0; v < n; v++ {
			if dist[v] >= 0 {
				bit := u*n + v
				b[8+bit/8] |= 1 << (bit % 8)
			}
		}
	}
	if appendix {
		enc := g.Encode()
		b = append(binary.AppendUvarint(b, uint64(len(enc))), enc...)
	}
	return b
}

func closureShapes() map[string]*graph.Graph {
	cycle := graph.New(67, true)
	for v := 0; v < 67; v++ {
		cycle.MustAddEdge(v, (v+1)%67)
	}
	forest := graph.New(23, false) // undirected, several components
	for _, e := range [][2]int{{0, 5}, {5, 9}, {1, 2}, {20, 22}, {21, 22}, {3, 4}} {
		forest.MustAddEdge(e[0], e[1])
	}
	return map[string]*graph.Graph{
		"random-directed":   graph.RandomDirected(131, 300, 1),
		"random-sparse":     graph.RandomDirected(90, 40, 2),
		"random-dag":        graph.RandomDAG(77, 200, 3),
		"community":         graph.CommunityGraph(5, 13, 9, 4),
		"connected-undir":   graph.RandomConnectedUndirected(70, 20, 5),
		"forest-undir":      forest,
		"path-directed":     graph.Path(64, true),
		"path-undirected":   graph.Path(9, false),
		"one-cycle":         cycle,
		"edgeless":          graph.New(10, true),
		"single-vertex":     graph.New(1, false),
		"no-vertices":       graph.New(0, true),
		"workload-shaped":   graph.RandomDirected(256, 1024, 6),
		"word-aligned-rows": graph.RandomDirected(128, 200, 7),
	}
}

// TestClosurePiBytesUnchanged: Preprocess emits, byte for byte, the
// reference Π — snapshots, pi_bytes_per_data_byte and VerifyIncremental all
// depend on those exact bytes — and the prepared form
// loaded from them agrees with ApplyDelta's reader on every pair.
func TestClosurePiBytesUnchanged(t *testing.T) {
	for name, g := range closureShapes() {
		want := closureBytesRef(g)
		got, err := ReachabilityScheme().Preprocess(g.Encode())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: Π differs from the per-vertex build (%d vs %d bytes)", name, len(got), len(want))
		}
		a, err := prepareClosure(got)
		if err != nil {
			t.Fatalf("%s: prepare: %v", name, err)
		}
		lr := a.(LocalReach)
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if framed, _ := frameProbe(got, u, v); lr.Reach(u, v) != framed {
					t.Fatalf("%s: prepared (%d,%d) = %v, framed probe %v", name, u, v, lr.Reach(u, v), framed)
				}
			}
		}
	}
}

// TestClosureVertexCap: the cap is on classes — what the rows are allocated
// by — and is checked before they are. 65 537 edgeless vertices are that many
// classes: refused by Preprocess with an error naming the limit and the scheme
// without one, while the labels scheme takes the same bytes. Twice the cap in vertices on one cycle is one
// class: it registers, answers, and its Π is under its data — one class takes
// no id bits, and the arc file is under the graph's uvarint pairs.
func TestClosureVertexCap(t *testing.T) {
	limit := fmt.Sprintf("%d-vertex limit", graph.MaxClosureVertices)
	for name, g := range map[string]*graph.Graph{
		"edgeless":       graph.New(graph.MaxClosureVertices+1, true),
		"edgeless-undir": graph.New(graph.MaxClosureVertices+1, false),
		"path":           graph.Path(graph.MaxClosureVertices+1, true), // |V| − |E| = 1: refused by its class count
	} {
		d := g.Encode()
		_, err := ReachabilityScheme().Preprocess(d)
		if err == nil || !strings.Contains(err.Error(), limit) || !strings.Contains(err.Error(), "classes") || !strings.Contains(err.Error(), "reachability/labels") {
			t.Fatalf("%s: over-cap Preprocess: %v, want an error naming classes, the %s and reachability/labels", name, err, limit)
		}
		if name != "edgeless" {
			continue
		}
		pd, err := ReachabilityLabelsScheme().Preprocess(d)
		if err != nil {
			t.Fatalf("the labels scheme refused the graph it is pointed at: %v", err)
		}
		if _, err := prepareLabels(pd); err != nil {
			t.Fatalf("labels prepare: %v", err)
		}
	}

	n := 2 * graph.MaxClosureVertices
	cycle := graph.New(n, true)
	for v := 0; v < n; v++ {
		cycle.MustAddEdge(v, (v+1)%n)
	}
	d := cycle.Encode()
	s := ReachabilityScheme()
	pd, err := s.Preprocess(d)
	if err != nil {
		t.Fatalf("a %d-vertex cycle is one class: %v", n, err)
	}
	if len(pd) >= len(d) {
		t.Fatalf("Π is %d bytes for %d of data, want under its data", len(pd), len(d))
	}
	a, err := s.Prepare(pd)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][]byte{NodePairQuery(0, n-1), NodePairQuery(n-1, 0), NodePairQuery(n/2, 7)} {
		once, onceErr := s.Answer(pd, q)
		prep, prepErr := a.Answer(q)
		if onceErr != nil || prepErr != nil || !once || !prep {
			t.Fatalf("on one cycle every pair is reachable: one-shot %v %v, prepared %v %v", once, onceErr, prep, prepErr)
		}
	}
	// Cutting the cycle makes a path of n classes: the PATCH is refused like
	// the registration would be, and Π is left alone.
	if _, err := ReachabilityScheme().ApplyDelta(pd, EdgeDeleteDelta(n-1, 0)); err == nil || !strings.Contains(err.Error(), limit) {
		t.Fatalf("delete that splits one class into %d: %v, want the cap error", n, err)
	}
}

// closureCorruptions derives, from a valid Π over n ≥ 2 vertices whose k
// classes leave room in a w-bit id for k itself, one payload per thing the
// framing or the probe validates. Each must be refused by Answer of (0,1),
// by Prepare — with the same string — and by ApplyDelta.
func closureCorruptions(t *testing.T, pd []byte) map[string][]byte {
	t.Helper()
	n, cond, _, err := closureParts(pd)
	if err != nil || n < 2 {
		t.Fatalf("fixture: n=%d, %v", n, err)
	}
	k := binary.LittleEndian.Uint32(cond)
	w := bits.Len32(k - 1)
	if k == 1<<w {
		t.Fatalf("fixture: %d classes use every %d-bit id", k, w)
	}
	edit := func(off int, val []byte) []byte {
		out := bytes.Clone(pd)
		copy(out[off:], val)
		return out
	}
	headEnd := 8 + len(cond)
	overCap := binary.BigEndian.AppendUint64(nil, uint64(graph.MaxClosureVertices+5)|closureLayout)
	overCap = binary.LittleEndian.AppendUint32(overCap, graph.MaxClosureVertices+1)
	pastIDs, err := keyFileBytes([]int64{int64(n * n)})
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 0's id is the low w bits of the first id word; k itself fits.
	idAtK := binary.LittleEndian.Uint64(pd[8+4:])&^(1<<w-1) | uint64(k)
	// The arc file's key count, at bytes 8–16 of its header, one too many.
	arcCount := binary.BigEndian.Uint64(pd[headEnd+8:]) + 1
	return map[string][]byte{
		"class-id-at-k":       edit(8+4, binary.LittleEndian.AppendUint64(nil, idAtK)),
		"k-over-the-cap":      overCap,
		"k-over-n":            edit(8, binary.LittleEndian.AppendUint32(nil, uint32(n+1))),
		"k-zero":              edit(8, []byte{0, 0, 0, 0}),
		"truncated-classes":   pd[:8+4+2],
		"truncated-rows":      append(bytes.Clone(pd[:headEnd-8]), pd[headEnd:]...),
		"trailing-bytes":      append(bytes.Clone(pd), 0xEE),
		"truncated-appendix":  pd[:len(pd)-1],
		"appendix-length-lie": edit(headEnd+8, binary.BigEndian.AppendUint64(nil, arcCount)),
		"arc-file-untagged":   edit(headEnd, []byte("KEF0")),
		"arc-id-past-n²":      append(bytes.Clone(pd[:headEnd]), pastIDs...),
	}
}

// arcFileCorruptions are closure payloads over four vertices in one class,
// each with an arc file whose own header holds: ids out of order (two low-bit
// fields of one bucket swapped, since the writer refuses them), a self-loop,
// an arc id past n² — v ≥ n, read as (n−1, v) — and an undirected arc stored
// as u > v. The framing refuses the third; only a reader that streams the arcs
// can tell the others.
func arcFileCorruptions(tb testing.TB) map[string][]byte {
	tb.Helper()
	with := func(directed bool, arcs []int64, swap bool) []byte {
		g := graph.New(4, directed)
		for v := 0; v < 4; v++ {
			g.MustAddEdge(v, (v+1)%4)
		}
		pd, err := closureBytes(g.Freeze())
		if err != nil {
			tb.Fatal(err)
		}
		_, cond, _, err := closureParts(pd)
		if err != nil {
			tb.Fatal(err)
		}
		file, err := keyFileBytes(arcs)
		if err != nil {
			tb.Fatal(err)
		}
		if swap {
			f, err := parseKeyFile(file)
			if err != nil || f.l != 1 {
				tb.Fatalf("fixture: %v, L=%d", err, f.l)
			}
			lows := file[f.low:]
			a, b := f.lowAt(1), f.lowAt(2)
			lows[0] &^= 0b110
			orBits(lows, 1, 1, b)
			orBits(lows, 2, 1, a)
		}
		return append(bytes.Clone(pd[:8+len(cond)]), file...)
	}
	// Arc u→v is id 4u + v.
	return map[string][]byte{
		"out-of-order":      with(true, []int64{1, 6, 7, 11, 12}, true), // 0→1, 1→3, 1→2, 2→3, 3→0
		"self-loop":         with(true, []int64{1, 5, 6, 11, 12}, false),
		"v-past-n":          with(true, []int64{1, 6, 11, 12, 3*4 + 4}, false),
		"undirected-u-gt-v": with(false, []int64{1, 3, 6, 14}, false),
	}
}

// TestClosureArcFileStreamChecks: every arc-file corruption is refused by a
// delete, the reader that streams the arcs — and the one whose id is past n²
// already by the framing, so by Prepare too.
func TestClosureArcFileStreamChecks(t *testing.T) {
	for name, bad := range arcFileCorruptions(t) {
		_, delErr := applyClosureDelta(bad, EdgeDeleteDelta(0, 1))
		_, _, _, frameErr := closureParts(bad)
		_, prepErr := prepareClosure(bad)
		if delErr == nil || (frameErr == nil) != (name != "v-past-n") || (prepErr == nil) != (frameErr == nil) {
			t.Errorf("%s: delete %v, framing %v, Prepare %v", name, delErr, frameErr, prepErr)
		}
	}
}

// TestClosureDeltaCanonical: class ids are canonical, so after every step of
// a random insert / delete sequence — directed and undirected — the
// maintained Π is byte for byte Preprocess(D ⊕ ∆D), whichever path produced
// it; and both paths are taken: the appendix splice when no fact can have
// changed, the rebuild when one can.
func TestClosureDeltaCanonical(t *testing.T) {
	inc := ReachabilityScheme()
	for _, directed := range []bool{true, false} {
		rng := rand.New(rand.NewSource(21))
		const n = 40
		g := graph.New(n, directed)
		pd, err := inc.Preprocess(g.Encode())
		if err != nil {
			t.Fatal(err)
		}
		splices, rebuilds := 0, 0
		for step := 0; step < 400; step++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			var delta []byte
			switch edges := g.Edges(); {
			case len(edges) > 0 && rng.Intn(3) == 0:
				e := edges[rng.Intn(len(edges))]
				delta = EdgeDeleteDelta(e[0], e[1])
			default:
				delta = EdgeDelta(u, v)
			}
			present := g.HasEdge(u, v)
			d, err := applyEdgeToGraph(g.Encode(), delta)
			if err != nil {
				t.Fatalf("directed=%v step %d: ⊕: %v", directed, step, err)
			}
			c, err := graph.Decode(d)
			if err != nil {
				t.Fatal(err)
			}
			g = c.Graph()
			next, err := inc.ApplyDelta(pd, delta)
			if err != nil {
				t.Fatalf("directed=%v step %d: %v", directed, step, err)
			}
			// ApplyDelta rebuilds exactly when a fact changes, and a changed
			// fact is a changed head (header ‖ condensed closure): the bytes
			// say which path a step took.
			_, cond, _, err := closureParts(pd)
			if err != nil {
				t.Fatal(err)
			}
			rebuilt := !bytes.HasPrefix(next, pd[:8+len(cond)])
			want, err := inc.Preprocess(d)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(next, want) {
				t.Fatalf("directed=%v step %d (rebuilt=%v): maintained Π differs from Preprocess(D ⊕ ∆D)", directed, step, rebuilt)
			}
			switch kind, _, _ := core.DeltaParts(delta); {
			case rebuilt:
				rebuilds++
			case kind == core.DeltaDelete || !present:
				splices++
			}
			pd = next
		}
		if splices == 0 || rebuilds == 0 {
			t.Fatalf("directed=%v: %d splices and %d rebuilds; the sequence must take both paths", directed, splices, rebuilds)
		}
		t.Logf("directed=%v: %d splices, %d rebuilds", directed, splices, rebuilds)
	}
}

// frameProbe is ApplyDelta's reader of one pair: the payload framed by
// closureParts, then the two class ids and the bit read straight off the wire
// form by graph.ProbeCondensedClosure — the probe a closure delta decides
// maintenance with (incremental.go), never the n ids it does not read.
func frameProbe(pd []byte, u, v int) (bool, error) {
	n, cond, _, err := closureParts(pd)
	if err != nil {
		return false, err
	}
	if u < 0 || u >= n || v < 0 || v >= n {
		return false, fmt.Errorf("schemes: node pair (%d,%d) out of range [0,%d)", u, v, n)
	}
	return graph.ProbeCondensedClosure(cond, n, u, v)
}

// FuzzClosureDecode: arbitrary bytes as Π never panic Prepare, ApplyDelta or
// ApplyDelta's framed probe, and on a payload Prepare accepts the prepared
// Reach of every pair (of a small n) equals the framed probe. The seeds
// include every arc file the stream refuses though its header holds
// (arcFileCorruptions).
func FuzzClosureDecode(f *testing.F) {
	for _, g := range closureShapes() {
		if g.N() > 70 {
			continue
		}
		pd, err := closureBytes(g.Freeze())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pd)
		f.Add(pd[:len(pd)/2])
		f.Add(denseClosureBytesRef(g, true))
		f.Add(uvarintClosureBytesRef(g))
	}
	for _, bad := range arcFileCorruptions(f) {
		f.Add(bad)
	}
	f.Add(binary.BigEndian.AppendUint64(nil, 3|closureLayout))
	f.Add(append(binary.BigEndian.AppendUint64(nil, 2|closureLayout), 2, 0, 0, 0, 1, 0, 2, 0)) // class id at k
	f.Fuzz(func(t *testing.T, pd []byte) {
		a, prepErr := prepareClosure(pd)
		n, _, _, frameErr := closureParts(pd)
		if frameErr != nil && prepErr == nil {
			t.Fatalf("Prepare accepted a payload whose framing is refused: %v", frameErr)
		}
		_, _ = applyClosureDelta(pd, EdgeDelta(0, 1))
		_, _ = applyClosureDelta(pd, EdgeDeleteDelta(0, 1))
		for u := 0; u < min(n, 64); u++ {
			for v := 0; v < min(n, 64); v++ {
				framed, probeErr := frameProbe(pd, u, v)
				if prepErr != nil {
					continue // the framed probe checks only what it reads
				}
				if prep := a.(LocalReach).Reach(u, v); probeErr != nil || framed != prep {
					t.Fatalf("accepted payload, pair (%d,%d): framed %v %v, prepared %v", u, v, framed, probeErr, prep)
				}
			}
		}
	})
}

// BenchmarkClosureApplyDelta: one PATCHed edge against a closure-matrix Π, by
// what the edge does — an insert or a delete that changes no fact (the
// appendix splice) and one that does (the rebuild) — on the benchmark
// workload's graph (22–31 classes), where the matrix is small, and on DAGs,
// where every vertex is a class, k = n and the matrix is n² bits again. Each
// case cycles through eight deltas sampled by a fixed seed, all applied to
// the same Π. It uses nothing PR 21 added, so the same file times the parent;
// docs/perf/BENCH_21.md §5 has both sides.
func BenchmarkClosureApplyDelta(b *testing.B) {
	inc := ReachabilityScheme()
	for _, shape := range []struct {
		name string
		g    *graph.Graph
	}{
		{"random4096", graph.RandomDirected(4096, 16384, 1)},
		{"dag4096", graph.RandomDAG(4096, 16384, 1)},
		{"dag16384", graph.RandomDAG(16384, 65536, 1)},
	} {
		g, n := shape.g, shape.g.N()
		pd, err := inc.Preprocess(g.Encode())
		if err != nil {
			b.Fatal(err)
		}
		edges := g.Edges()
		rng := rand.New(rand.NewSource(21))
		sample := func(insert, changes bool) [][]byte {
			var deltas [][]byte
			for len(deltas) < 8 {
				if insert {
					u, v := rng.Intn(n), rng.Intn(n)
					if u != v && !g.HasEdge(u, v) && g.Reachable(u, v) != changes {
						deltas = append(deltas, EdgeDelta(u, v))
					}
					continue
				}
				e := edges[rng.Intn(len(edges))]
				if err := g.RemoveEdge(e[0], e[1]); err != nil {
					b.Fatal(err)
				}
				if g.Reachable(e[0], e[1]) != changes {
					deltas = append(deltas, EdgeDeleteDelta(e[0], e[1]))
				}
				g.MustAddEdge(e[0], e[1])
			}
			return deltas
		}
		for _, c := range []struct {
			name            string
			insert, changes bool
		}{
			{"insert-splice", true, false},
			{"insert-adds-fact", true, true},
			{"delete-splice", false, false},
			{"delete-disconnects", false, true},
		} {
			deltas := sample(c.insert, c.changes)
			b.Run(shape.name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := inc.ApplyDelta(pd, deltas[i%len(deltas)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkClosureProbe: one reachability query against the closure-matrix Π
// of the benchmark workload's graph, through the one-shot Answer (a Prepare
// per call) and through the prepared answerer. It uses nothing the layout
// names, so the same file times the parent.
func BenchmarkClosureProbe(b *testing.B) {
	s := ReachabilityScheme()
	g := graph.RandomDirected(4096, 16384, 1)
	pd, err := s.Preprocess(g.Encode())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	qs := make([][]byte, 1024)
	for i := range qs {
		qs[i] = NodePairQuery(rng.Intn(4096), rng.Intn(4096))
	}
	a, err := s.Prepare(pd)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("one-shot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Answer(pd, qs[i&1023]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := a.Answer(qs[i&1023]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
