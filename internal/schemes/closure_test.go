package schemes

// The closure-matrix scheme's Π is built by graph.NewCondensedClosure
// (condensation, word-wide row unions over the classes) and laid out by its
// AppendWire. These tests hold the bytes to a reference build — one search per
// vertex, one bit at a time — through Preprocess and through every maintained
// step, fuzz the decoder, and pin the class cap that sizes the rows before
// they are allocated.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pitract/internal/core"
	"pitract/internal/graph"
)

// closureBytesRef is the reference Π, from one Graph.BFS per vertex: classes
// are mutual reachability, numbered by smallest member; bit d of class row c
// is set, one bit at a time, when c's smallest member reaches d's; then the
// graph appendix.
func closureBytesRef(g *graph.Graph) []byte {
	n := g.N()
	reach := make([][]int, n)
	for u := range reach {
		_, reach[u] = g.BFS(u)
	}
	class := make([]int, n)
	var smallest []int
	for v := range class {
		class[v] = -1
		for c, s := range smallest {
			if reach[v][s] >= 0 && reach[s][v] >= 0 {
				class[v] = c
			}
		}
		if class[v] < 0 {
			class[v] = len(smallest)
			smallest = append(smallest, v)
		}
	}
	k := len(smallest)
	header := uint64(n) | ClosureGraphFlag | closureCondensedFlag
	if !g.Directed() {
		header |= ClosureUndirectedFlag
	}
	b := binary.BigEndian.AppendUint64(nil, header)
	b = binary.LittleEndian.AppendUint32(b, uint32(k))
	for _, c := range class {
		b = binary.LittleEndian.AppendUint16(b, uint16(c))
	}
	stride := 8 * ((k + 63) / 64)
	rows := make([]byte, k*stride)
	for c, s := range smallest {
		for d, t := range smallest {
			if reach[s][t] >= 0 {
				rows[c*stride+d/8] |= 1 << (d % 8)
			}
		}
	}
	return appendClosureGraph(append(b, rows...), g.Encode())
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
		b = appendClosureGraph(b, g.Encode())
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
// reference Π — snapshots, pi_bytes_per_data_byte, VerifyIncremental and the
// labels fallback all depend on those exact bytes — and the prepared form
// loaded from them agrees with the raw probe on every pair.
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
				if raw, _ := closureReach(got, u, v); lr.Reach(u, v) != raw {
					t.Fatalf("%s: prepared (%d,%d) = %v, raw probe %v", name, u, v, lr.Reach(u, v), raw)
				}
			}
		}
	}
}

// TestClosureVertexCap: the cap is on classes — what the rows are allocated
// by — and is checked before they are. 65 537 edgeless vertices are that many
// classes: refused by Preprocess with an error naming the limit and the scheme
// without one, and by the labels scheme's fallback, while the labels scheme
// itself takes the same bytes. Twice the cap in vertices on one cycle is one
// class: it registers, answers, and its Π is under 1.5× its data.
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
		if _, err := prepareLabelsFallback(pd); err == nil || !strings.Contains(err.Error(), limit) {
			t.Fatalf("over-cap labels fallback: %v, want an error naming the %s", err, limit)
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
	if 2*len(pd) >= 3*len(d) {
		t.Fatalf("Π is %d bytes for %d of data, want under 1.5×", len(pd), len(d))
	}
	a, err := s.Prepare(pd)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][]byte{NodePairQuery(0, n-1), NodePairQuery(n-1, 0), NodePairQuery(n/2, 7)} {
		raw, rawErr := s.Answer(pd, q)
		prep, prepErr := a.Answer(q)
		if rawErr != nil || prepErr != nil || !raw || !prep {
			t.Fatalf("on one cycle every pair is reachable: raw %v %v, prepared %v %v", raw, rawErr, prep, prepErr)
		}
	}
	// Cutting the cycle makes a path of n classes: the PATCH is refused like
	// the registration would be, and Π is left alone.
	if _, err := IncrementalReachability().ApplyDelta(pd, EdgeDeleteDelta(n-1, 0)); err == nil || !strings.Contains(err.Error(), limit) {
		t.Fatalf("delete that splits one class into %d: %v, want the cap error", n, err)
	}
}

// closureCorruptions derives, from a valid Π over n ≥ 2 vertices, one payload
// per thing the decoder validates. Each must be refused by the raw probe of
// (0,1), by Prepare — with the same string — and by ApplyDelta.
func closureCorruptions(t *testing.T, pd []byte) map[string][]byte {
	t.Helper()
	n, cond, graphEnc, err := closureParts(pd)
	if err != nil || n < 2 {
		t.Fatalf("fixture: n=%d, %v", n, err)
	}
	k := binary.LittleEndian.Uint32(cond)
	edit := func(off int, val []byte) []byte {
		out := bytes.Clone(pd)
		copy(out[off:], val)
		return out
	}
	headEnd := 8 + len(cond)
	overCap := binary.BigEndian.AppendUint64(nil, uint64(graph.MaxClosureVertices+5)|closureLayout)
	overCap = binary.LittleEndian.AppendUint32(overCap, graph.MaxClosureVertices+1)
	return map[string][]byte{
		"class-id-at-k":       edit(8+4+2, binary.LittleEndian.AppendUint16(nil, uint16(k))),
		"k-over-the-cap":      overCap,
		"k-over-n":            edit(8, binary.LittleEndian.AppendUint32(nil, uint32(n+1))),
		"k-zero":              edit(8, []byte{0, 0, 0, 0}),
		"truncated-classes":   pd[:8+4+n],
		"truncated-rows":      append(bytes.Clone(pd[:headEnd-8]), pd[headEnd:]...),
		"trailing-bytes":      append(bytes.Clone(pd), 0xEE),
		"truncated-appendix":  pd[:len(pd)-1],
		"appendix-length-lie": append(binary.AppendUvarint(bytes.Clone(pd[:headEnd]), uint64(len(graphEnc)+1)), graphEnc...),
	}
}

// TestClosureDeltaCanonical: class ids are canonical, so after every step of
// a random insert / upsert / delete sequence — directed and undirected — the
// maintained Π is byte for byte Preprocess(D ⊕ ∆D), whichever path produced
// it; and both paths are taken: the appendix splice when no fact can have
// changed, the rebuild when one can.
func TestClosureDeltaCanonical(t *testing.T) {
	inc := IncrementalReachability()
	for _, directed := range []bool{true, false} {
		rng := rand.New(rand.NewSource(21))
		const n = 40
		g := graph.New(n, directed)
		pd, err := inc.Scheme.Preprocess(g.Encode())
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
			case rng.Intn(2) == 0:
				delta = EdgeUpsertDelta(u, v)
			default:
				delta = EdgeDelta(u, v)
			}
			present := g.HasEdge(u, v)
			d, err := applyEdgeToGraph(g.Encode(), delta)
			if err != nil {
				t.Fatalf("directed=%v step %d: ⊕: %v", directed, step, err)
			}
			if g, err = graph.Decode(d); err != nil {
				t.Fatal(err)
			}
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
			want, err := inc.Scheme.Preprocess(d)
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

// FuzzClosureDecode: arbitrary bytes as Π never panic the raw probe, Prepare
// or ApplyDelta, and a payload Prepare accepts answers every pair (of a small
// n) the same raw and prepared.
func FuzzClosureDecode(f *testing.F) {
	for _, g := range closureShapes() {
		if g.N() > 70 {
			continue
		}
		pd, err := closureBytes(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pd)
		f.Add(pd[:len(pd)/2])
		f.Add(denseClosureBytesRef(g, true))
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
				raw, rawErr := closureReach(pd, u, v)
				if prepErr != nil {
					continue // the raw probe checks only what it reads
				}
				if prep := a.(LocalReach).Reach(u, v); rawErr != nil || raw != prep {
					t.Fatalf("accepted payload, pair (%d,%d): raw %v %v, prepared %v", u, v, raw, rawErr, prep)
				}
			}
		}
	})
}

// BenchmarkClosureApplyDelta: one PATCHed edge against a closure-matrix Π, by
// what the edge does — an insert or a delete that changes no fact (the
// appendix splice) and one that does (the rebuild) — on the benchmark
// workload's graph (≈ 150 classes), where the matrix is small, and on DAGs,
// where every vertex is a class, k = n and the matrix is n² bits again. Each
// case cycles through eight deltas sampled by a fixed seed, all applied to
// the same Π. It uses nothing PR 21 added, so the same file times the parent;
// docs/perf/BENCH_21.md §5 has both sides.
func BenchmarkClosureApplyDelta(b *testing.B) {
	inc := IncrementalReachability()
	for _, shape := range []struct {
		name string
		g    *graph.Graph
	}{
		{"random4096", graph.RandomDirected(4096, 16384, 1)},
		{"dag4096", graph.RandomDAG(4096, 16384, 1)},
		{"dag16384", graph.RandomDAG(16384, 65536, 1)},
	} {
		g, n := shape.g, shape.g.N()
		pd, err := inc.Scheme.Preprocess(g.Encode())
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
