package graph

import (
	"math"

	"pitract/internal/pram"
)

// Traversals and reachability. BFS doubles as the no-preprocessing baseline
// for the paper's Example 3 (reachability queries answered by search), and
// the closure (condensed.go) is the "precompute a matrix that records
// reachability between all pairs" preprocessing the same example describes.

// BFS returns the breadth-first visit order from src and the distance array
// (-1 for unreachable vertices).
func (g *Graph) BFS(src int) (order []int, dist []int) {
	g.Normalize()
	dist = make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, int(v))
			}
		}
	}
	return order, dist
}

// Reachable answers one reachability query by BFS: O(|V|+|E|) per query.
func (g *Graph) Reachable(src, dst int) bool {
	if src == dst {
		return true
	}
	_, dist := g.BFS(src)
	return dist[dst] >= 0
}

// Closure is the in-memory n×n all-pairs reachability matrix: bit v of row u
// (⌈n/64⌉ words a row) is set iff v is reachable from u (reflexively).
// NewClosure (condensed.go) builds it; a maintainer mutates it through Row.
// Nothing persists it — the stored form is CondensedClosure.
type Closure struct {
	n     int
	words int
	bits  []uint64
}

// Reach answers a reachability query in O(1).
func (c *Closure) Reach(u, v int) bool {
	return c.bits[u*c.words+v/64]&(1<<(v%64)) != 0
}

// Row returns row u: ⌈n/64⌉ words, bit v set iff u reaches v, bits at and
// above n zero. The slice aliases the closure, so a maintainer (internal/inc)
// updates the matrix through it.
func (c *Closure) Row(u int) []uint64 {
	return c.bits[u*c.words : (u+1)*c.words : (u+1)*c.words]
}

// SCC computes strongly connected components with Tarjan's algorithm over
// the flat arrays. It returns the component id of every vertex and the
// number of components. Component ids are in reverse topological order of
// the condensation (Tarjan's natural output order).
func (c *CSR) SCC() (comp []int32, count int) { return tarjan(c.off, c.dst) }

// SCC is CSR.SCC for a graph being built edge by edge.
func (g *Graph) SCC() (comp []int32, count int) { return tarjan(g.flat()) }

// tarjan is the one SCC kernel, iterative so deep graphs do not overflow the
// goroutine stack, over CSR rows with int32 state: a vertex's visit number (0
// until visited) beside its low-link, and call frames of a vertex and its
// next arc. A vertex whose component is known gets the visit number done,
// which lowers no low-link, so there is no on-stack array.
func tarjan(off, dst []int32) (comp []int32, count int) {
	const done = math.MaxInt32
	type vertex struct{ index, low int32 }
	type frame struct{ v, arc int32 }
	n := len(off) - 1
	vs := make([]vertex, n)
	comp = make([]int32, n)
	var stack []int32
	var call []frame
	next := int32(0)
	for root := range int32(n) {
		if vs[root].index != 0 {
			continue
		}
		next++
		vs[root] = vertex{next, next}
		stack = append(stack, root)
		call = append(call, frame{root, off[root]})
	search:
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			for end := off[v+1]; f.arc < end; {
				w := dst[f.arc]
				f.arc++
				if vs[w].index == 0 {
					next++
					vs[w] = vertex{next, next}
					stack = append(stack, w)
					call = append(call, frame{w, off[w]})
					continue search
				}
				vs[v].low = min(vs[v].low, vs[w].index)
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				vs[p].low = min(vs[p].low, vs[v].low)
			}
			if vs[v].low == vs[v].index {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					vs[w].index = done
					comp[w] = int32(count)
					if w == v {
						break
					}
				}
				count++
			}
		}
	}
	return comp, count
}

// Condense returns the condensation DAG of a directed graph: one vertex per
// SCC, an edge between components when any member edge crosses them (the
// repeats Normalize drops). The comp array maps original vertices to
// condensation vertices.
func (g *Graph) Condense() (dag *Graph, comp []int) {
	c32, count := g.SCC()
	dag, comp = New(count, true), make([]int, g.n)
	for u, l := range g.adj {
		comp[u] = int(c32[u])
		for _, v := range l {
			if cu, cv := int(c32[u]), int(c32[v]); cu != cv {
				dag.MustAddEdge(cu, cv)
			}
		}
	}
	dag.Normalize()
	return dag, comp
}

// ClosurePRAM computes the reflexive-transitive closure on the PRAM by
// repeated Boolean squaring, returning the closure and the machine so the
// caller can inspect the round count. It exists to demonstrate that the
// Example 3 preprocessing itself lies in NC.
func ClosurePRAM(g *Graph) (*pram.BoolMatrix, *pram.Machine) {
	m := pram.New(1)
	return pram.TransitiveClosure(m, g.AdjacencyMatrix()), m
}
