package graph

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// The closure over the condensation. Vertices of one strongly connected
// component reach, and are reached by, exactly the same vertices, so all-pairs
// reachability is a class id per vertex plus a k×k bit matrix over the k
// classes — "only the information relevant to the queries" (the paper's §4(5)).
// CondensedClosure is that value and the only persisted closure: the
// closure-matrix scheme's Π and the sharded portal overlay both store its wire
// form. Closure, the n×n matrix internal/inc and internal/compress keep in
// memory, is expanded from the same kernel.

// MaxClosureVertices caps the condensation a serving path will close: the
// rows are k·⌈k/64⌉ words over the k classes whatever the edge count (512 MB
// here), and a vertex — a class of its own until an edge says otherwise —
// costs a payload no bytes. It is also why a class id is a uint16: every id
// is below the class count, which is at most 1<<16.
const MaxClosureVertices = 1 << 16

// checkClosureSize refuses a class count — or a lower bound on one — above
// MaxClosureVertices. NewCondensedClosure asks it twice, both before the rows
// exist.
func checkClosureSize(classes int) error {
	if classes > MaxClosureVertices {
		return fmt.Errorf("graph: the closure's condensation has at least %d classes (strongly connected components), over the %d-vertex limit on a condensation (its rows take k² bits)", classes, MaxClosureVertices)
	}
	return nil
}

// condensation is the kernel's output: the classes, their closed rows, and
// the member lists both consumers need to expand a class row over vertices.
type condensation struct {
	class          []int // class[v], numbered by smallest member vertex
	k, words       int   // class count and ⌈k/64⌉, the row stride
	rows           []uint64
	start, members []int32 // members[start[c]:start[c+1]]: class c, ascending
}

// closeClasses computes the reflexive-transitive closure over the
// condensation of g from g.SCC()'s components (comp, rewritten in place into
// class ids, and their count k). Classes are numbered by their smallest
// member, so the result is a function of the reachability relation and not of
// Tarjan's visit order; SCC numbers components in reverse topological order,
// so walking them in that order finishes every successor's row before the
// rows that need it. A class's row is its own bit OR the rows
// of its successor classes — skipping a successor whose bit is already set,
// since a finished row that contains it contains everything it reaches. That
// is O(|V|+|E|) for the components plus at most |E_c|·⌈k/64⌉ word ORs over the
// arcs E_c of the condensation; the only memory beyond the rows is O(|V|).
func closeClasses(g *Graph, comp []int, k int) *condensation {
	n := g.n
	canon := make([]int32, k) // Tarjan id → canonical id; also the walk order
	for t := range canon {
		canon[t] = -1
	}
	next := int32(0)
	for _, t := range comp {
		if canon[t] < 0 {
			canon[t] = next
			next++
		}
	}
	cd := &condensation{class: comp, k: k, words: (k + 63) / 64}
	cd.start = make([]int32, k+1)
	for v, t := range comp {
		comp[v] = int(canon[t])
		cd.start[comp[v]+1]++
	}
	for c := 0; c < k; c++ {
		cd.start[c+1] += cd.start[c]
	}
	cd.members = make([]int32, n)
	fill := slices.Clone(cd.start[:k])
	for v, c := range comp {
		cd.members[fill[c]] = int32(v)
		fill[c]++
	}

	cd.rows = make([]uint64, k*cd.words)
	for _, c := range canon {
		row := cd.rows[int(c)*cd.words:][:cd.words]
		row[c>>6] |= 1 << (c & 63)
		for _, u := range cd.members[cd.start[c]:cd.start[c+1]] {
			for _, v := range g.adj[u] {
				d := comp[v]
				if row[d>>6]>>(d&63)&1 != 0 {
					continue
				}
				for i, w := range cd.rows[d*cd.words:][:cd.words] {
					row[i] |= w
				}
			}
		}
	}
	return cd
}

// NewClosure computes the n×n closure by expanding the condensed one: a
// class's row is built once — the members of every class it reaches — and
// copied to its other members. A graph whose classes are all singletons (a
// DAG) needs no expansion: class c is vertex c and the class rows are the
// matrix — expanding them one bit at a time instead costs 3.4× on
// BenchmarkClosure's 4096-vertex DAG and 60× on its 8192-vertex path
// (docs/perf/BENCH_21.md §5). No cap is applied; library callers size their
// own graphs.
func NewClosure(g *Graph) *Closure {
	comp, k := g.SCC()
	cd := closeClasses(g, comp, k)
	n := g.n
	c := &Closure{n: n, words: (n + 63) / 64}
	if cd.k == n {
		c.bits = cd.rows
		return c
	}
	c.bits = make([]uint64, n*c.words)
	for k := 0; k < cd.k; k++ {
		ms := cd.members[cd.start[k]:cd.start[k+1]]
		row := c.Row(int(ms[0]))
		for wi, w := range cd.rows[k*cd.words:][:cd.words] {
			for ; w != 0; w &= w - 1 {
				d := wi<<6 + bits.TrailingZeros64(w)
				for _, v := range cd.members[cd.start[d]:cd.start[d+1]] {
					row[v>>6] |= 1 << (v & 63)
				}
			}
		}
		for _, u := range ms[1:] {
			copy(c.Row(int(u)), row)
		}
	}
	return c
}

// CondensedClosure is all-pairs reachability stored over the condensation:
// class[v] and k rows of ⌈k/64⌉ words, bit d of row c set iff class c reaches
// class d (reflexively). Building it is the PTIME preprocessing of Example 3;
// Reach is the O(1) answering step. It is immutable once built or decoded.
type CondensedClosure struct {
	class []uint16
	k     int
	words int
	rows  []uint64
}

// NewCondensedClosure closes g over its condensation, refusing one of more
// than MaxClosureVertices classes. It checks twice, both before the rows
// exist: a class of s > 1 vertices holds at least s − 1 of the edges, so
// k ≥ |V| − |E| turns a payload that claims millions of edgeless vertices away
// before SCC allocates for them; then k itself.
func NewCondensedClosure(g *Graph) (*CondensedClosure, error) {
	g.Normalize()
	if err := checkClosureSize(g.n - g.m); err != nil {
		return nil, err
	}
	comp, k := g.SCC()
	if err := checkClosureSize(k); err != nil {
		return nil, err
	}
	cd := closeClasses(g, comp, k)
	class := make([]uint16, g.n)
	for v, c := range cd.class {
		class[v] = uint16(c)
	}
	return &CondensedClosure{class: class, k: cd.k, words: cd.words, rows: cd.rows}, nil
}

// N reports the vertex count.
func (c *CondensedClosure) N() int { return len(c.class) }

// Classes reports k, the number of strongly connected classes.
func (c *CondensedClosure) Classes() int { return c.k }

// Class reports v's class: vertices of one class share every row and column.
func (c *CondensedClosure) Class(v int) int { return int(c.class[v]) }

// Reach answers a reachability query in O(1): two loads and a bit test.
func (c *CondensedClosure) Reach(u, v int) bool {
	d := c.class[v]
	return c.rows[int(c.class[u])*c.words+int(d>>6)]>>(d&63)&1 != 0
}

// ReachFrom sets bit v of row for every v that u reaches: u's class row,
// expanded over the members.
func (c *CondensedClosure) ReachFrom(u int, row []uint64) {
	from := c.rows[int(c.class[u])*c.words:][:c.words]
	for v, d := range c.class {
		if from[d>>6]>>(d&63)&1 != 0 {
			row[v>>6] |= 1 << (v & 63)
		}
	}
}

// ReachTo sets bit u of col for every u that reaches v: the column of v's
// class, expanded over the members.
func (c *CondensedClosure) ReachTo(v int, col []uint64) {
	d := c.class[v]
	to := c.rows[d>>6:]
	for u, cu := range c.class {
		if to[int(cu)*c.words]>>(d&63)&1 != 0 {
			col[u>>6] |= 1 << (u & 63)
		}
	}
}

// The wire form, little-endian throughout:
//
//	k (4 bytes) ‖ class[v] (2 bytes each, n of them) ‖ k rows of ⌈k/64⌉ 8-byte words
//
// The vertex count is the caller's (the scheme's header, the summary's portal
// list), so the length of the form is a function of n and its first four
// bytes.

// WireLen reports the length of the wire form.
func (c *CondensedClosure) WireLen() int { return 4 + 2*len(c.class) + 8*len(c.rows) }

// AppendWire appends the wire form and returns the extended slice. It is the
// one emitter of the layout.
func (c *CondensedClosure) AppendWire(dst []byte) []byte {
	dst = slices.Grow(dst, c.WireLen())
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.k))
	for _, id := range c.class {
		dst = binary.LittleEndian.AppendUint16(dst, id)
	}
	for _, w := range c.rows {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// condensedFrame reads the class count off the front of a wire form over n
// vertices and checks it against everything that can be checked in O(1):
// 1 ≤ k ≤ min(n, MaxClosureVertices), or k = 0 for no vertices. It returns k
// and the length the form must have.
func condensedFrame(b []byte, n int) (k, size int, err error) {
	if len(b) < 4 {
		return 0, 0, fmt.Errorf("graph: condensed closure is %d bytes, shorter than its class count", len(b))
	}
	k64 := uint64(binary.LittleEndian.Uint32(b))
	if k64 > uint64(n) || k64 > MaxClosureVertices || (k64 == 0) != (n == 0) {
		return 0, 0, fmt.Errorf("graph: condensed closure claims %d classes over %d vertices (limit %d)", k64, n, MaxClosureVertices)
	}
	k = int(k64)
	return k, 4 + 2*n + 8*k*((k+63)/64), nil
}

// CondensedClosureLen reports how many bytes the wire form that starts at b
// must span, from n and its class count alone, for a caller that frames
// something behind it. The bytes themselves are DecodeCondensedClosure's to
// check.
func CondensedClosureLen(b []byte, n int) (int, error) {
	_, size, err := condensedFrame(b, n)
	return size, err
}

// condensedExact is condensedFrame for a caller holding the form and nothing
// behind it: the length must be exact.
func condensedExact(b []byte, n int) (k int, err error) {
	k, size, err := condensedFrame(b, n)
	if err != nil {
		return 0, err
	}
	if len(b) != size {
		return 0, fmt.Errorf("graph: condensed closure is %d bytes, %d classes over %d vertices take %d", len(b), k, n, size)
	}
	return k, nil
}

func classError(v int, id uint16, k int) error {
	return fmt.Errorf("graph: condensed closure puts vertex %d in class %d of %d", v, id, k)
}

// DecodeCondensedClosure parses and validates the wire form over n vertices:
// exact length, a class count in range, every class id below it — everything
// a probe or a bulk read indexes by, checked once.
func DecodeCondensedClosure(b []byte, n int) (*CondensedClosure, error) {
	k, err := condensedExact(b, n)
	if err != nil {
		return nil, err
	}
	c := &CondensedClosure{class: make([]uint16, n), k: k, words: (k + 63) / 64}
	b = b[4:]
	for v := range c.class {
		id := binary.LittleEndian.Uint16(b[2*v:])
		if int(id) >= k {
			return nil, classError(v, id, k)
		}
		c.class[v] = id
	}
	b = b[2*n:]
	c.rows = make([]uint64, k*c.words)
	for i := range c.rows {
		c.rows[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return c, nil
}

// ProbeCondensedClosure answers reach(u, v) straight off the wire form over n
// vertices, for a caller holding bytes nobody has decoded: it checks the
// frame, the length and the two class ids it reads, never the rest. u and v
// must lie in [0, n).
func ProbeCondensedClosure(b []byte, n, u, v int) (bool, error) {
	k, err := condensedExact(b, n)
	if err != nil {
		return false, err
	}
	cu, cv := binary.LittleEndian.Uint16(b[4+2*u:]), binary.LittleEndian.Uint16(b[4+2*v:])
	if int(cu) >= k {
		return false, classError(u, cu, k)
	}
	if int(cv) >= k {
		return false, classError(v, cv, k)
	}
	bit := (int(cu)*((k+63)/64))<<6 + int(cv)
	return b[4+2*n+bit>>3]>>(bit&7)&1 != 0, nil
}
