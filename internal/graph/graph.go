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
// tiny buffer can demand an arbitrarily large adjacency allocation. 1<<24
// is far above every workload in this repo while keeping the worst-case
// allocation a few hundred MB instead of unbounded.
const MaxDecodeVertices = 1 << 24

// N reports the vertex count.
func (g *Graph) N() int { return g.n }

// M reports the edge count (undirected edges counted once).
func (g *Graph) M() int { return g.m }

// Directed reports edge orientation.
func (g *Graph) Directed() bool { return g.directed }

// AddEdge inserts the edge u→v (plus v→u when undirected). Self-loops and
// out-of-range endpoints are errors; parallel edges are tolerated and
// deduplicated by Normalize.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	g.adj[u] = append(g.adj[u], int32(v))
	if !g.directed {
		g.adj[v] = append(g.adj[v], int32(u))
	}
	g.m++
	g.sorted = false
	return nil
}

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
// n, directed flag, edge count, then delta-free (u,v) varint pairs. The
// adjacency lists are walked twice — once to count the edges and size the
// output, once to write it — so the one allocation is the result.
func (g *Graph) Encode() []byte {
	g.Normalize()
	edges, size := 0, 0
	for u, l := range g.adj {
		for _, v := range l {
			if g.directed || u < int(v) {
				edges++
				size += uvarintLen(uint64(u)) + uvarintLen(uint64(v))
			}
		}
	}
	b := make([]byte, 0, uvarintLen(uint64(g.n))+1+uvarintLen(uint64(edges))+size)
	b = binary.AppendUvarint(b, uint64(g.n))
	if g.directed {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(edges))
	for u, l := range g.adj {
		for _, v := range l {
			if g.directed || u < int(v) {
				b = binary.AppendUvarint(b, uint64(u))
				b = binary.AppendUvarint(b, uint64(v))
			}
		}
	}
	return b
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Decode parses a byte string produced by Encode. It also accepts edges in
// any order and with repeats (sorted and deduplicated, like AddEdge +
// Normalize). The edge list is read twice — once to validate it and count
// degrees, once to fill a single backing array the adjacency lists are cut
// from — and canonical input, whose lists arrive sorted, is not sorted again.
func Decode(buf []byte) (*Graph, error) {
	off := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return 0, fmt.Errorf("graph: corrupt varint at offset %d", off)
		}
		off += n
		return v, nil
	}
	n64, err := next()
	if err != nil {
		return nil, err
	}
	// Bound the vertex count before allocating adjacency headers: a hostile
	// dozen-byte buffer can claim 2^40 vertices and OOM-kill the process
	// otherwise (the serve path feeds Decode attacker-controlled bytes).
	if n64 > MaxDecodeVertices {
		return nil, fmt.Errorf("graph: vertex count %d exceeds decode limit %d", n64, uint64(MaxDecodeVertices))
	}
	if off >= len(buf) {
		return nil, fmt.Errorf("graph: truncated before orientation flag")
	}
	directed := buf[off] == 1
	off++
	n := int(n64)
	m64, err := next()
	if err != nil {
		return nil, err
	}
	// Each encoded edge takes at least two bytes, so an edge count beyond
	// half the remaining buffer is corrupt — reject it up front.
	if m64 > uint64(len(buf)-off)/2 {
		return nil, fmt.Errorf("graph: edge count %d exceeds remaining %d bytes", m64, len(buf)-off)
	}
	edges, m := off, int(m64)

	// Pass 1: every check, in stream order; pos[x+1] counts the arcs of x.
	pos := make([]int, n+1)
	for i := 0; i < m; i++ {
		u64, err := next()
		if err != nil {
			return nil, err
		}
		v64, err := next()
		if err != nil {
			return nil, err
		}
		u, v := int(u64), int(v64)
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at %d", u)
		}
		pos[u+1]++
		if !directed {
			pos[v+1]++
		}
	}
	if off != len(buf) {
		return nil, fmt.Errorf("graph: %d trailing bytes", len(buf)-off)
	}
	for x := 0; x < n; x++ {
		pos[x+1] += pos[x]
	}

	// Pass 2: pos[x] is the fill cursor of x; it ends at the start of x+1.
	arcs := make([]int32, pos[n])
	off = edges
	for i := 0; i < m; i++ {
		u64, _ := next()
		v64, _ := next()
		arcs[pos[u64]] = int32(v64)
		pos[u64]++
		if !directed {
			arcs[pos[v64]] = int32(u64)
			pos[v64]++
		}
	}
	g := &Graph{n: n, directed: directed, m: m, adj: make([][]int32, n), sorted: true}
	start := 0
	for x := range g.adj {
		if start == pos[x] {
			continue // an isolated vertex keeps the nil list New gives it
		}
		// Capped, so a later AddEdge reallocates instead of overwriting the
		// next vertex's list.
		l := arcs[start:pos[x]:pos[x]]
		for i := 1; i < len(l) && g.sorted; i++ {
			g.sorted = l[i-1] < l[i]
		}
		g.adj[x], start = l, pos[x]
	}
	g.Normalize()
	return g, nil
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
