// Package graph provides the graph substrate shared by the paper's case
// studies: graph construction and generators, traversals, strongly
// connected components, transitive closure (sequential and PRAM), and a
// deterministic byte codec for moving graphs across the data/query boundary
// of factorizations.
package graph

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"pitract/internal/pram"
)

// Graph is a simple graph with vertices 0..n-1. Undirected graphs store
// each edge in both adjacency lists. Adjacency lists are kept sorted
// ascending, which the breadth-depth search semantics of the paper rely on
// ("the ordering induced by the vertex numbering").
type Graph struct {
	n        int
	directed bool
	m        int // logical edge count (an undirected edge counts once)
	adj      [][]int32
	sorted   bool
}

// New returns a graph with n vertices and no edges.
func New(n int, directed bool) *Graph {
	return &Graph{n: n, directed: directed, adj: make([][]int32, n), sorted: true}
}

// MaxDecodeVertices caps the vertex count Decode will accept. Vertices cost
// no bytes in the wire format (only the varint count), so without a cap a
// tiny buffer can demand an arbitrarily large offset allocation. 1<<24 is
// far above every workload in this repo while keeping the worst case at
// 128 MB of offsets (8 bytes a vertex, directed) instead of unbounded.
const MaxDecodeVertices = 1 << 24

// N reports the vertex count.
func (g *Graph) N() int { return g.n }

// M reports the edge count (undirected edges counted once).
func (g *Graph) M() int { return g.m }

// Directed reports edge orientation.
func (g *Graph) Directed() bool { return g.directed }

// AddEdge inserts the edge u→v (plus v→u when undirected). Self-loops and
// out-of-range endpoints are errors; parallel edges are tolerated and
// deduplicated by Normalize. Edges added in ascending (u, v) order — u < v
// for an undirected graph — keep every list ascending, so such a graph
// needs no Normalize.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	g.sorted = g.sorted && above(g.adj[u], v) && (g.directed || above(g.adj[v], u))
	g.adj[u] = append(g.adj[u], int32(v))
	if !g.directed {
		g.adj[v] = append(g.adj[v], int32(u))
	}
	g.m++
	return nil
}

// above reports whether v would extend the list l in ascending order.
func above(l []int32, v int) bool { return len(l) == 0 || int(l[len(l)-1]) < v }

// MustAddEdge is AddEdge that panics on error, for fixtures and generators.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether the edge u→v is present (v→u counts too when
// undirected, since AddEdge stores both arcs).
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	for _, w := range g.adj[u] {
		if int(w) == v {
			return true
		}
	}
	return false
}

// RemoveEdge deletes the edge u→v (plus v→u when undirected). Deleting an
// edge that is not present is an error: retraction of a fact that was never
// asserted is a client mistake the caller must surface, not absorb.
// Duplicates from un-normalized parallel insertions lose one copy per call.
func (g *Graph) RemoveEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if !g.removeArc(u, v) {
		return fmt.Errorf("graph: edge (%d,%d) not present", u, v)
	}
	if !g.directed {
		// AddEdge always stores the reverse arc, so its absence here means
		// the adjacency lists were corrupted, not a client mistake.
		if !g.removeArc(v, u) {
			return fmt.Errorf("graph: undirected edge (%d,%d) missing reverse arc", u, v)
		}
	}
	g.m--
	return nil
}

// removeArc removes the first copy of v from u's adjacency list, preserving
// order (so a sorted list stays sorted).
func (g *Graph) removeArc(u, v int) bool {
	l := g.adj[u]
	for i, w := range l {
		if int(w) == v {
			g.adj[u] = append(l[:i], l[i+1:]...)
			return true
		}
	}
	return false
}

// Normalize sorts adjacency lists ascending and removes duplicate edges.
// All traversal functions call it implicitly via Neighbors.
func (g *Graph) Normalize() {
	if g.sorted {
		return
	}
	m := 0
	for i := range g.adj {
		l := g.adj[i]
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		out := l[:0]
		for k, v := range l {
			if k == 0 || v != l[k-1] {
				out = append(out, v)
			}
		}
		g.adj[i] = out
		m += len(out)
	}
	if g.directed {
		g.m = m
	} else {
		g.m = m / 2
	}
	g.sorted = true
}

// Neighbors returns the ascending adjacency list of v. The slice aliases
// internal state and must not be mutated.
func (g *Graph) Neighbors(v int) []int32 {
	g.Normalize()
	return g.adj[v]
}

// Degree reports the (out-)degree of v.
func (g *Graph) Degree(v int) int { return len(g.Neighbors(v)) }

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := New(g.n, g.directed)
	c.m = g.m
	c.sorted = g.sorted
	for i, l := range g.adj {
		c.adj[i] = append([]int32(nil), l...)
	}
	return c
}

// Edges enumerates edges as (u, v) pairs; undirected edges appear once with
// u < v.
func (g *Graph) Edges() [][2]int {
	g.Normalize()
	var out [][2]int
	for u, l := range g.adj {
		for _, v := range l {
			if g.directed || u < int(v) {
				out = append(out, [2]int{u, int(v)})
			}
		}
	}
	return out
}

// --- codec -----------------------------------------------------------------

// Encode serializes the graph as a self-delimiting byte string:
// n, directed flag, edge count, then delta-free (u,v) varint pairs.
func (g *Graph) Encode() []byte {
	g.Normalize()
	return encode(g.n, g.directed, func(u int) []int32 { return g.adj[u] })
}

// encode writes the wire form from ascending adjacency rows, walking them
// twice — once to count the edges and size the output, once to write it — so
// the one allocation is the result. An undirected edge is its u < v arc.
func encode(n int, directed bool, row func(int) []int32) []byte {
	edges, size := 0, 0
	for u := range n {
		for _, v := range row(u) {
			if directed || u < int(v) {
				edges++
				size += uvarintLen(uint64(u)) + uvarintLen(uint64(v))
			}
		}
	}
	b := make([]byte, 0, uvarintLen(uint64(n))+1+uvarintLen(uint64(edges))+size)
	b = binary.AppendUvarint(b, uint64(n))
	if directed {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(edges))
	for u := range n {
		for _, v := range row(u) {
			if directed || u < int(v) {
				b = binary.AppendUvarint(b, uint64(u))
				b = binary.AppendUvarint(b, uint64(v))
			}
		}
	}
	return b
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Decode parses a byte string produced by Encode into its CSR. It also
// accepts edges in any order and with repeats, sorted and deduplicated as
// AddEdge + Normalize would (CSR.finish). The edges are read twice, as the
// loop below says; canonical input allocates nothing but the CSR.
func Decode(buf []byte) (*CSR, error) {
	corrupt := func(at int) error { return fmt.Errorf("graph: corrupt varint at offset %d", at) }
	n64, at := binary.Uvarint(buf)
	if at <= 0 {
		return nil, corrupt(0)
	}
	// Bound the vertex count before allocating the offsets: a hostile
	// dozen-byte buffer can claim 2^40 vertices and OOM-kill the process
	// otherwise (the serve path feeds Decode attacker-controlled bytes).
	if n64 > MaxDecodeVertices {
		return nil, fmt.Errorf("graph: vertex count %d exceeds decode limit %d", n64, uint64(MaxDecodeVertices))
	}
	if at >= len(buf) {
		return nil, fmt.Errorf("graph: truncated before orientation flag")
	}
	directed := buf[at] == 1
	n := int(n64)
	m64, k := binary.Uvarint(buf[at+1:])
	if k <= 0 {
		return nil, corrupt(at + 1)
	}
	at += 1 + k
	// Each encoded edge takes at least two bytes, so an edge count beyond
	// half the remaining buffer is corrupt — reject it up front.
	if m64 > uint64(len(buf)-at)/2 {
		return nil, fmt.Errorf("graph: edge count %d exceeds remaining %d bytes", m64, len(buf)-at)
	}
	edges, m := at, int(m64)

	// Two passes over the edges, the uvarints read inline (one or two bytes
	// without a call). Pass 0 makes every check, in stream order, and counts
	// the out-arcs of x at off[x+1] and its in-arcs at roff[x+1] (the same
	// array when undirected, so an edge counts at both ends); sorted says
	// whether every edge follows the one before it in (u, v) order, u < v when
	// undirected — canonical input, whose rows pass 1 fills ascending and
	// without repeats. Pass 1 puts every arc at the cursors of its two rows.
	c, sorted := rows(n, directed), true
	off, dst, roff, rdst := c.off, c.dst, c.roff, c.rdst
	for pass := range 2 {
		prev := uint64(0) // the last edge's u<<32 | v, below every edge's
		at = edges
		for range m {
			var e [2]uint64
			for j := range e {
				if at < len(buf) && buf[at] < 0x80 {
					e[j], at = uint64(buf[at]), at+1
				} else if at+1 < len(buf) && buf[at+1] < 0x80 {
					e[j], at = uint64(buf[at]&0x7f)|uint64(buf[at+1])<<7, at+2
				} else if x, k := binary.Uvarint(buf[at:]); k > 0 {
					e[j], at = x, at+k
				} else {
					return nil, corrupt(at)
				}
			}
			u, v := e[0], e[1]
			if pass == 1 {
				dst[off[u]] = int32(v)
				off[u]++
				rdst[roff[v]] = int32(u)
				roff[v]++
				continue
			}
			if u >= n64 || v >= n64 {
				return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", int(u), int(v), n)
			}
			if u == v {
				return nil, fmt.Errorf("graph: self-loop at %d", u)
			}
			sorted = sorted && u<<32|v > prev && (directed || u < v)
			prev = u<<32 | v
			off[u+1]++
			roff[v+1]++
		}
		if pass == 1 {
			break
		}
		if at != len(buf) {
			return nil, fmt.Errorf("graph: %d trailing bytes", len(buf)-at)
		}
		arcs := m
		if !directed {
			arcs = 2 * m
		}
		if err := checkArcs(arcs); err != nil {
			return nil, err
		}
		off, dst, roff, rdst = c.cursors()
	}
	return c.finish(sorted), nil
}

// --- generators -------------------------------------------------------------

// RandomDirected returns a seeded G(n, m) directed graph without self-loops.
func RandomDirected(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n, true)
	for added := 0; added < m && n > 1; added++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		g.MustAddEdge(u, v)
	}
	g.Normalize()
	return g
}

// RandomConnectedUndirected returns a seeded connected undirected graph: a
// random spanning tree plus extra random edges.
func RandomConnectedUndirected(n, extra int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n, false)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v, rng.Intn(v))
	}
	for e := 0; e < extra && n > 1; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(u, v)
		}
	}
	g.Normalize()
	return g
}

// RandomDAG returns a seeded DAG: each edge goes from a lower to a higher
// vertex number.
func RandomDAG(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n, true)
	for added := 0; added < m && n > 1; added++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		g.MustAddEdge(u, v)
	}
	g.Normalize()
	return g
}

// CommunityGraph returns a seeded directed graph of c dense communities of
// size s with sparse cross links — the "social network graph" shape used by
// the query-preserving-compression case study (§4(5)).
func CommunityGraph(c, s int, cross int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := c * s
	g := New(n, true)
	for com := 0; com < c; com++ {
		base := com * s
		// A cycle through the community keeps it strongly connected, plus
		// chords for density.
		for i := 0; i < s; i++ {
			g.MustAddEdge(base+i, base+(i+1)%s)
		}
		for i := 0; i < s; i++ {
			u := base + rng.Intn(s)
			v := base + rng.Intn(s)
			if u != v {
				g.MustAddEdge(u, v)
			}
		}
	}
	for e := 0; e < cross; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(u, v)
		}
	}
	g.Normalize()
	return g
}

// Path returns the n-vertex path 0—1—…—n-1 (directed: 0→1→…).
func Path(n int, directed bool) *Graph {
	g := New(n, directed)
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(v, v+1)
	}
	g.Normalize()
	return g
}

// AdjacencyMatrix converts the graph to a PRAM Boolean matrix.
func (g *Graph) AdjacencyMatrix() *pram.BoolMatrix {
	g.Normalize()
	mat := pram.NewBoolMatrix(g.n)
	for u, l := range g.adj {
		for _, v := range l {
			mat.Set(u, int(v), true)
		}
	}
	return mat
}
