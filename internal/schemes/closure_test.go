package schemes

// The closure-matrix scheme's Π is built by graph.NewClosure (condensation,
// word-wide row unions) and laid out by graph.Closure.AppendDense. These
// tests hold the bytes to a reference build — one search per vertex, one bit
// at a time — and pin the vertex cap that sizes the matrix before it is
// allocated.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"pitract/internal/graph"
)

// closureBytesRef is the reference Π: one Graph.BFS per vertex, every
// reachable pair set bit by bit behind the header, then the graph appendix.
func closureBytesRef(g *graph.Graph) []byte {
	n := g.N()
	b := make([]byte, 8+(n*n+7)/8)
	header := uint64(n) | ClosureGraphFlag
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
	return appendClosureGraph(b, g.Encode())
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

// TestClosureVertexCap: a payload claiming more vertices than
// graph.MaxClosureVertices is refused before the n² bits are allocated — by
// Preprocess with an error naming the limit and the scheme without one, and
// by the labels scheme's dense fallback — while the labels scheme itself
// takes the same bytes.
func TestClosureVertexCap(t *testing.T) {
	d := graph.New(graph.MaxClosureVertices+1, true).Encode()
	limit := fmt.Sprintf("%d-vertex limit", graph.MaxClosureVertices)

	_, err := ReachabilityScheme().Preprocess(d)
	if err == nil || !strings.Contains(err.Error(), limit) || !strings.Contains(err.Error(), "reachability/labels") {
		t.Fatalf("over-cap Preprocess: %v, want an error naming the %s and reachability/labels", err, limit)
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
