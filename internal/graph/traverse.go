package graph

import (
	"slices"

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

// N reports the vertex count.
func (c *Closure) N() int { return c.n }

// Row returns row u: ⌈n/64⌉ words, bit v set iff u reaches v, bits at and
// above n zero. The slice aliases the closure, so a maintainer (internal/inc)
// updates the matrix through it.
func (c *Closure) Row(u int) []uint64 {
	return c.bits[u*c.words : (u+1)*c.words : (u+1)*c.words]
}

// RowEqual reports whether vertices u and v reach exactly the same set.
func (c *Closure) RowEqual(u, v int) bool {
	return slices.Equal(c.Row(u), c.Row(v))
}

// SCC computes strongly connected components with Tarjan's algorithm
// (iterative, so deep graphs do not overflow the goroutine stack). It
// returns the component id of every vertex and the number of components.
// Component ids are in reverse topological order of the condensation
// (Tarjan's natural output order).
func (g *Graph) SCC() (comp []int, count int) {
	g.Normalize()
	n := g.n
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int32
	next := 0

	type frame struct {
		v    int32
		edge int
	}
	var call []frame
	for root := 0; root < n; root++ {
		if index[root] >= 0 {
			continue
		}
		call = append(call[:0], frame{int32(root), 0})
		index[root], low[root] = next, next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			if f.edge < len(g.adj[v]) {
				w := g.adj[v][f.edge]
				f.edge++
				if index[w] < 0 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{w, 0})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = count
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
// SCC, an edge between components when any member edge crosses them. The
// comp array maps original vertices to condensation vertices.
func (g *Graph) Condense() (dag *Graph, comp []int) {
	comp, count := g.SCC()
	dag = New(count, true)
	seen := make(map[[2]int]bool)
	for u, l := range g.adj {
		for _, v := range l {
			cu, cv := comp[u], comp[int(v)]
			if cu != cv && !seen[[2]int{cu, cv}] {
				seen[[2]int{cu, cv}] = true
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
