// Package compress implements query-preserving compression for graph
// reachability queries — the paper's §4(5) strategy: preprocess a database
// D into a smaller Dc such that Q(D) = Q(Dc) for every query in the class,
// "preserving the information only relevant to queries in Q rather than
// preserving the data itself".
//
// The compression pipeline for the reachability query class:
//
//  1. SCC condensation: vertices in one strongly connected component are
//     mutually reachable, so collapsing each SCC to a single vertex
//     preserves every reachability query (with the obvious translation).
//  2. False-twin merging on the condensation DAG: two non-adjacent vertices
//     with identical in-neighbour and identical out-neighbour sets are
//     indistinguishable to every reachability query that does not name
//     both; the only queries naming both (u→v or v→u) are necessarily
//     false in a DAG, which the query translation hard-codes. Merging is
//     iterated to a fixpoint.
//
// This follows the spirit of Fan et al., "Query preserving graph
// compression" (SIGMOD 2012) [16], which the paper cites; their
// reachability-equivalence relation is coarser (it also merges chains), at
// the price of a more intricate query translation. The twin relation keeps
// the translation a two-case lookup while still shrinking community-shaped
// graphs dramatically — the SCC step alone removes every community core.
package compress

import (
	"fmt"
	"sort"
	"sync"

	"pitract/internal/graph"
)

// Compressed is the query-preserving compression of a directed graph for
// the reachability query class, together with the vertex translation map.
type Compressed struct {
	// Dc is the compressed graph (a DAG).
	Dc *graph.Graph
	// Map sends each original vertex to its compressed representative.
	Map []int
	// scc holds the stage-1 SCC id of each original vertex; two originals
	// with one representative are mutually reachable iff they share an SCC.
	scc []int
	// closure over Dc for O(1) answering after compression, built by the
	// first Reach that crosses representatives: the labels scheme compresses
	// registered graphs and never probes, so it must not pay |Vc|² bits.
	closureOnce sync.Once
	closure     *graph.Closure
}

// Compress builds the query-preserving compression of g.
func Compress(g *graph.Graph) (*Compressed, error) {
	if !g.Directed() {
		return nil, fmt.Errorf("compress: reachability compression expects a directed graph")
	}
	// Stage 1: SCC condensation.
	dag, comp := g.Condense()
	// Stage 2: iterated false-twin merging.
	mapping := make([]int, len(comp))
	copy(mapping, comp)
	for {
		merged, twinMap := mergeFalseTwins(dag)
		if merged == nil {
			break
		}
		for v := range mapping {
			mapping[v] = twinMap[mapping[v]]
		}
		dag = merged
	}
	return &Compressed{Dc: dag, Map: mapping, scc: comp}, nil
}

// mergeFalseTwins finds classes of vertices with identical in- and
// out-neighbour sets and collapses each class to one vertex. It returns
// (nil, nil) when no class has more than one member.
func mergeFalseTwins(dag *graph.Graph) (*graph.Graph, []int) {
	n := dag.N()
	// Build in-neighbour lists from the out-lists.
	ins := make([][]int32, n)
	for u := 0; u < n; u++ {
		for _, v := range dag.Neighbors(u) {
			ins[v] = append(ins[v], int32(u))
		}
	}
	for v := range ins {
		sort.Slice(ins[v], func(i, j int) bool { return ins[v][i] < ins[v][j] })
	}
	// Group by (in-list, out-list) signature.
	sig := make(map[string][]int, n)
	for v := 0; v < n; v++ {
		key := key32(ins[v]) + "|" + key32(dag.Neighbors(v))
		sig[key] = append(sig[key], v)
	}
	classOf := make([]int, n)
	for i := range classOf {
		classOf[i] = -1
	}
	classes := 0
	any := false
	// Deterministic order: iterate vertices, assign class ids first-seen.
	assigned := make(map[string]int, len(sig))
	for v := 0; v < n; v++ {
		key := key32(ins[v]) + "|" + key32(dag.Neighbors(v))
		id, ok := assigned[key]
		if !ok {
			id = classes
			classes++
			assigned[key] = id
			if len(sig[key]) > 1 {
				any = true
			}
		}
		classOf[v] = id
	}
	if !any {
		return nil, nil
	}
	merged := graph.New(classes, true)
	seen := make(map[[2]int]bool)
	for u := 0; u < n; u++ {
		for _, v := range dag.Neighbors(u) {
			cu, cv := classOf[u], classOf[int(v)]
			if cu != cv && !seen[[2]int{cu, cv}] {
				seen[[2]int{cu, cv}] = true
				merged.MustAddEdge(cu, cv)
			}
		}
	}
	merged.Normalize()
	return merged, classOf
}

func key32(l []int32) string {
	b := make([]byte, 0, len(l)*5)
	for _, v := range l {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), ',')
	}
	return string(b)
}

// Reach answers the original-graph reachability query reach(u, v) on the
// compressed structure: u reaches v iff u = v, or their representatives
// differ and are connected in Dc. Two distinct originals sharing a
// representative are never connected (twins are non-adjacent by
// construction; SCC members translate to the same vertex and ARE mutually
// reachable, which the same-representative case must answer true for —
// distinguished by the sameSCC flag kept in Map semantics below).
func (c *Compressed) Reach(u, v int) (bool, error) {
	if u < 0 || u >= len(c.Map) || v < 0 || v >= len(c.Map) {
		return false, fmt.Errorf("compress: query (%d,%d) out of range [0,%d)", u, v, len(c.Map))
	}
	if u == v {
		return true, nil
	}
	mu, mv := c.Map[u], c.Map[v]
	if mu != mv {
		c.closureOnce.Do(func() { c.closure = graph.NewClosure(c.Dc) })
		return c.closure.Reach(mu, mv), nil
	}
	// Same representative: either the originals share an SCC (mutually
	// reachable: answer true) or they are merged twins (answer false).
	// The two cases are distinguished by sccMate.
	return c.sccMate(u, v), nil
}

// sccMate reports whether u and v were merged at the SCC stage (mutually
// reachable) rather than at the twin stage. Twins are only ever merged when
// non-adjacent in the condensation, i.e. not mutually reachable, so the
// SCC question is exactly "mutually reachable in the original". The
// Compressed structure intentionally retains no original-graph state, so
// this is recomputed from the stored per-vertex SCC ids.
func (c *Compressed) sccMate(u, v int) bool {
	return c.scc[u] == c.scc[v]
}

// SCCIDs returns the stage-1 SCC id of every original vertex. Two vertices
// sharing a representative in Map are mutually reachable iff they share an
// SCC id — the disambiguation the succinct labeling scheme
// (internal/schemes) persists alongside Map so its verdict translation
// matches Reach exactly. The slice aliases internal state; callers must
// not mutate it.
func (c *Compressed) SCCIDs() []int { return c.scc }

// Ratio reports the compression ratios (vertices and edges, compressed
// over original).
func (c *Compressed) Ratio(orig *graph.Graph) (vertexRatio, edgeRatio float64) {
	vr := float64(c.Dc.N()) / float64(max(1, orig.N()))
	er := float64(c.Dc.M()) / float64(max(1, orig.M()))
	return vr, er
}
