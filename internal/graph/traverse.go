package graph

import (
	"encoding/binary"
	"fmt"
	"slices"

	"pitract/internal/pram"
)

// Traversals and reachability. BFS doubles as the no-preprocessing baseline
// for the paper's Example 3 (reachability queries answered by search), and
// the bitset Closure is the "precompute a matrix that records reachability
// between all pairs" preprocessing the same example describes.

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

// Closure is a dense all-pairs reachability index: bit v of row u (⌈n/64⌉
// words a row) is set iff v is reachable from u (reflexively). Building it is
// the PTIME preprocessing of Example 3; Reach is the O(1) answering step.
type Closure struct {
	n     int
	words int
	bits  []uint64
}

// MaxClosureVertices is the largest vertex count a serving path may hand to
// NewClosure: the rows are n·⌈n/64⌉ words whatever the edge count (512 MB
// here, 35 TB at MaxDecodeVertices), and vertices cost a payload no bytes.
// NewClosure itself does not enforce it — library callers size their own
// graphs — so every path fed registered bytes asks CheckClosureSize first.
const MaxClosureVertices = 1 << 16

// CheckClosureSize refuses a vertex count whose closure rows would exceed
// MaxClosureVertices, before anything is allocated for them.
func CheckClosureSize(n int) error {
	if n > MaxClosureVertices {
		return fmt.Errorf("graph: a dense closure over %d vertices exceeds the %d-vertex limit (its rows take n² bits)", n, MaxClosureVertices)
	}
	return nil
}

// NewClosure computes the reflexive-transitive closure by condensation:
// vertices of one strongly connected component reach the same set, so a row
// is built once per component and copied to the other members, and SCC
// numbers components in reverse topological order, so every successor
// component's row is finished before the rows that need it. A component's
// row is its members' bits OR the rows of its successor components — skipping
// a successor whose bit is already set, since a finished row that contains
// it contains everything it reaches. That is O(|V|+|E|) for the components
// plus at most |E_c|·⌈|V|/64⌉ word ORs over the arcs E_c of the condensation
// (far fewer on a dense one, whose transitive arcs are skipped) plus the
// |V|·⌈|V|/64⌉ words of output; rows are written in place, so the only
// memory beyond the matrix is O(|V|).
func NewClosure(g *Graph) *Closure {
	comp, count := g.SCC()
	n := g.n
	words := (n + 63) / 64
	c := &Closure{n: n, words: words, bits: make([]uint64, n*words)}

	// Counting sort: members[start[k]:start[k+1]] are the vertices of
	// component k, ascending.
	start := make([]int32, count+1)
	for _, k := range comp {
		start[k+1]++
	}
	for k := 0; k < count; k++ {
		start[k+1] += start[k]
	}
	members := make([]int32, n)
	next := slices.Clone(start[:count])
	for v, k := range comp {
		members[next[k]] = int32(v)
		next[k]++
	}

	for k := 0; k < count; k++ {
		ms := members[start[k]:start[k+1]]
		row := c.Row(int(ms[0]))
		for _, u := range ms {
			row[u>>6] |= 1 << (u & 63)
		}
		for _, u := range ms {
			for _, v := range g.adj[u] {
				if row[v>>6]>>(v&63)&1 != 0 {
					continue
				}
				for i, w := range c.Row(int(v)) {
					row[i] |= w
				}
			}
		}
		for _, u := range ms[1:] {
			copy(c.Row(int(u)), row)
		}
	}
	return c
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

// AppendDense appends the closure in its wire layout — n·n bits, row-major
// with no padding between rows (row u starts at bit u·n), bit i at byte i/8,
// LSB first, ⌈n²/8⌉ bytes — and returns the extended slice. It is the one
// emitter of that layout: the closure-matrix scheme's Π and the sharded
// overlay summary both store exactly these bytes. Rows are streamed through
// a 64-bit accumulator, so a row that starts mid-byte (n % 8 ≠ 0) costs a
// shift per word, not a test per bit.
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
