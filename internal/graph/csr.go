package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// CSR is an immutable two-way adjacency in compressed sparse row form: the
// out-neighbours of x are dst[off[x]:off[x+1]], its in-neighbours
// rdst[roff[x]:roff[x+1]], both ascending and without repeats. An undirected
// graph is its own reverse and shares one direction. Decode returns it and
// every serving reader walks it: ≈ 8·(|V|+|E|) bytes, safe for concurrent
// askers.
type CSR struct {
	n          int
	directed   bool
	off, dst   []int32
	roff, rdst []int32
	pool       sync.Pool // *scratch, sized for this CSR
}

// scratch is one asker's working memory. mark[x] holds the stamp of the
// search that last touched x, so starting a search costs two increments
// instead of an O(|V|) clear; each vertex is marked by one side at most
// once per search, so either queue holds at most n entries.
type scratch struct {
	mark   []uint32
	epoch  uint32 // last stamp handed out
	fq, bq []int32
}

// checkArcs refuses an arc count the int32 offsets cannot hold: a graph of
// more than 2³¹−1 arcs, over 4 GiB encoded.
func checkArcs(arcs int) error {
	if arcs > math.MaxInt32 {
		return fmt.Errorf("graph: %d arcs exceed the %d a CSR holds", arcs, math.MaxInt32)
	}
	return nil
}

// rows starts a CSR on n vertices: zeroed offsets, in which the caller counts
// every vertex's out-arcs at off[x+1] and in-arcs at roff[x+1] — one array
// when undirected, whose reverse is itself.
func rows(n int, directed bool) *CSR {
	c := &CSR{n: n, directed: directed, off: make([]int32, n+1)}
	c.roff = c.off
	if directed {
		c.roff = make([]int32, n+1)
	}
	return c
}

// cursors turns the counts into the start of every row, the cursors an arc
// u→v is filled at — v at off[u] and u at roff[v], each advanced — and
// allocates the arcs.
func (c *CSR) cursors() (off, dst, roff, rdst []int32) {
	for x := range c.n {
		c.off[x+1] += c.off[x]
	}
	c.dst = make([]int32, c.off[c.n])
	c.rdst = c.dst
	if c.directed {
		for x := range c.n {
			c.roff[x+1] += c.roff[x]
		}
		c.rdst = make([]int32, len(c.dst))
	}
	return c.off, c.dst, c.roff, c.rdst
}

// finish shifts the cursors, each of which ended at the start of the next
// row, back up into offsets. Rows filled from edges that did not arrive
// sorted are sorted instead, and the graph is filled again from its edges,
// each once and now in order.
func (c *CSR) finish(sorted bool) *CSR {
	n := c.n
	shift := func(off []int32) { copy(off[1:], off[:n]); off[0] = 0 }
	shift(c.off)
	if c.directed {
		shift(c.roff)
	}
	if !sorted {
		var edges [][2]int32
		for u := range int32(n) {
			row := c.dst[c.off[u]:c.off[u+1]]
			slices.Sort(row)
			for i, v := range row {
				if (i == 0 || v != row[i-1]) && (c.directed || u < v) {
					edges = append(edges, [2]int32{u, v})
				}
			}
		}
		return FromArcs(n, c.directed, edges)
	}
	c.pool.New = func() any {
		q := make([]int32, 2*n)
		return &scratch{mark: make([]uint32, n), fq: q[:n], bq: q[n:]}
	}
	return c
}

// FromArcs builds the CSR of the graph on n vertices with the given edges, in
// any order and with repeats, an undirected edge either way round. Endpoints
// must lie in [0, n), and no edge may be a self-loop.
func FromArcs(n int, directed bool, edges [][2]int32) *CSR {
	c, sorted, prev := rows(n, directed), true, int64(-1)
	for _, e := range edges {
		key := int64(e[0])<<32 | int64(e[1]) // as Decode orders them
		sorted, prev = sorted && key > prev && (directed || e[0] < e[1]), key
		c.off[e[0]+1]++
		c.roff[e[1]+1]++
	}
	off, dst, roff, rdst := c.cursors()
	for _, e := range edges {
		dst[off[e[0]]] = e[1]
		off[e[0]]++
		rdst[roff[e[1]]] = e[0]
		roff[e[1]]++
	}
	return c.finish(sorted)
}

// Freeze builds the CSR of a graph built edge by edge, for a library caller;
// the serving paths get theirs from Decode. The graph may be mutated
// afterwards: the CSR shares no memory with it.
func (g *Graph) Freeze() *CSR {
	edges := make([][2]int32, 0, g.M())
	for _, e := range g.Edges() {
		edges = append(edges, [2]int32{int32(e[0]), int32(e[1])})
	}
	return FromArcs(g.n, g.directed, edges)
}

// flat lays the adjacency lists out as CSR rows, ascending.
func (g *Graph) flat() (off, dst []int32) {
	g.Normalize()
	off = make([]int32, 1, g.n+1)
	for _, l := range g.adj {
		dst = append(dst, l...)
		off = append(off, int32(len(dst)))
	}
	return off, dst
}

// Graph returns a mutable copy, for a caller that edits the graph edge by
// edge: its adjacency lists are cut, capped, from one copy of the arcs, so a
// later AddEdge reallocates a list instead of overwriting the next one.
func (c *CSR) Graph() *Graph {
	g := &Graph{n: c.n, directed: c.directed, m: c.M(), adj: make([][]int32, c.n), sorted: true}
	arcs := slices.Clone(c.dst)
	for x := range g.adj {
		if a, b := c.off[x], c.off[x+1]; a < b {
			g.adj[x] = arcs[a:b:b]
		}
	}
	return g
}

// N reports the vertex count.
func (c *CSR) N() int { return c.n }

// M reports the edge count (undirected edges counted once).
func (c *CSR) M() int {
	if c.directed {
		return len(c.dst)
	}
	return len(c.dst) / 2
}

// Directed reports edge orientation.
func (c *CSR) Directed() bool { return c.directed }

// Neighbors returns the ascending out-neighbours of v. The slice aliases the
// CSR and must not be mutated.
func (c *CSR) Neighbors(v int) []int32 { return c.dst[c.off[v]:c.off[v+1]:c.off[v+1]] }

// Encode serializes the graph as Graph.Encode does.
func (c *CSR) Encode() []byte { return encode(c.n, c.directed, c.Neighbors) }

// stamps returns two fresh mark values, clearing the marks when the stamp
// space is about to wrap so a stale mark can never equal a live one.
func (s *scratch) stamps() (fwd, bwd uint32) {
	if s.epoch > math.MaxUint32-2 {
		clear(s.mark)
		s.epoch = 0
	}
	s.epoch += 2
	return s.epoch - 1, s.epoch
}

// Reachable reports whether dst is reachable from src (reflexively) by a
// bidirectional breadth-first search: a forward search from src over the
// out-arcs and a backward search from dst over the in-arcs advance one level
// at a time, always the side with the smaller frontier. It answers true the
// moment an arc leads into a vertex the other side has marked and false the
// moment either frontier drains — a search that exhausted one side's whole
// reach without meeting the other proves there is no path. Worst case
// O(|V|+|E|) (a long path); no allocation once the pool is warm.
func (c *CSR) Reachable(src, dst int) bool {
	if src == dst {
		return true
	}
	s := c.pool.Get().(*scratch)
	met := c.search(s, src, dst)
	c.pool.Put(s)
	return met
}

// search is Reachable for src != dst on a scratch the caller owns. [fh,ft)
// and [bh,bt) are the two current frontiers inside their queues.
func (c *CSR) search(s *scratch, src, dst int) bool {
	fwd, bwd := s.stamps()
	s.mark[src], s.mark[dst] = fwd, bwd
	s.fq[0], s.bq[0] = int32(src), int32(dst)
	fh, ft, bh, bt := 0, 1, 0, 1
	for fh < ft && bh < bt {
		var met bool
		if ft-fh <= bt-bh {
			level := ft
			ft, met = expand(c.off, c.dst, s.mark, s.fq, fh, ft, fwd, bwd)
			fh = level
		} else {
			level := bt
			bt, met = expand(c.roff, c.rdst, s.mark, s.bq, bh, bt, bwd, fwd)
			bh = level
		}
		if met {
			return true
		}
	}
	return false
}

// expand advances one side by one level: it scans the arcs of q[head:tail],
// stamps every unmarked endpoint with mine and appends it to q. It stops with
// met=true at the first endpoint carrying the other side's stamp.
func expand(off, dst []int32, mark []uint32, q []int32, head, tail int, mine, other uint32) (newTail int, met bool) {
	for _, x := range q[head:tail] {
		for _, y := range dst[off[x]:off[x+1]] {
			switch mark[y] {
			case mine:
			case other:
				return tail, true
			default:
				mark[y] = mine
				q[tail] = y
				tail++
			}
		}
	}
	return tail, false
}

// ReachFrom sets bit v of row (⌈n/64⌉ words) for every vertex v reachable
// from src, src included — one traversal for a whole closure row.
func (c *CSR) ReachFrom(src int, row []uint64) { c.reachSet(c.off, c.dst, src, row) }

func (c *CSR) reachSet(off, dst []int32, s int, set []uint64) {
	sc := c.pool.Get().(*scratch)
	stack := sc.fq[:0] // a vertex is pushed once, when its bit is first set
	set[s>>6] |= 1 << (s & 63)
	stack = append(stack, int32(s))
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y := range dst[off[x]:off[x+1]] {
			if w, b := y>>6, uint64(1)<<(y&63); set[w]&b == 0 {
				set[w] |= b
				stack = append(stack, y)
			}
		}
	}
	c.pool.Put(sc)
}
