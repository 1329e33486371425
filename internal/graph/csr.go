package graph

import (
	"math"
	"sync"
)

// CSR is an immutable two-way adjacency in compressed sparse row form: the
// out-neighbours of x are dst[off[x]:off[x+1]], its in-neighbours
// rdst[roff[x]:roff[x+1]], both ascending. An undirected graph is its own
// reverse and shares one direction. It is the prepared form of the
// search-per-query baseline: ≈ 8·(|V|+|E|) bytes, safe for concurrent askers.
type CSR struct {
	n          int
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

// Freeze flattens the graph into a CSR. The graph may be mutated afterwards;
// the CSR shares no memory with it. Offsets are int32: a graph of more than
// 2³¹−1 arcs (over 4 GiB encoded, which Decode would have had to be handed
// whole) panics.
func (g *Graph) Freeze() *CSR {
	g.Normalize()
	arcs := 0
	for _, l := range g.adj {
		arcs += len(l)
	}
	if arcs > math.MaxInt32 {
		panic("graph: too many arcs for a CSR")
	}
	n := g.n
	c := &CSR{n: n, off: make([]int32, n+1), dst: make([]int32, 0, arcs)}
	for u, l := range g.adj {
		c.dst = append(c.dst, l...)
		c.off[u+1] = int32(len(c.dst))
	}
	c.roff, c.rdst = c.off, c.dst
	if g.directed {
		c.roff, c.rdst = make([]int32, n+1), make([]int32, arcs)
		for _, v := range c.dst {
			c.roff[v+1]++
		}
		for x := 0; x < n; x++ {
			c.roff[x+1] += c.roff[x]
		}
		// Filling in ascending source order leaves every in-list sorted;
		// the cursor of x ends at the start of x+1, so shifting the cursors
		// up one slot restores the offsets.
		for u := 0; u < n; u++ {
			for _, v := range c.dst[c.off[u]:c.off[u+1]] {
				c.rdst[c.roff[v]] = int32(u)
				c.roff[v]++
			}
		}
		copy(c.roff[1:], c.roff[:n])
		c.roff[0] = 0
	}
	c.pool.New = func() any {
		q := make([]int32, 2*n)
		return &scratch{mark: make([]uint32, n), fq: q[:n], bq: q[n:]}
	}
	return c
}

// N reports the vertex count.
func (c *CSR) N() int { return c.n }

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

// ReachTo sets bit u of col for every vertex u that reaches dst, dst
// included — ReachFrom over the in-arcs.
func (c *CSR) ReachTo(dst int, col []uint64) { c.reachSet(c.roff, c.rdst, dst, col) }

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
