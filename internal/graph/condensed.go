package graph

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// The closure over the reachability-equivalence classes. Vertices with the
// same ancestors and the same descendants answer every reachability query
// alike — the relation of Fan, Li, Wang and Wu ("Query Preserving Graph
// Compression", SIGMOD 2012): the members of one strongly connected
// component, and acyclic vertices that no path joins but that share both
// sets (two sources into one component, two sinks out of it). So all-pairs
// reachability is a class id per vertex plus a k×k bit matrix over the k
// classes — "only the information relevant to the queries" (the paper's
// §4(5)). CondensedClosure is that value and the only persisted closure: the
// closure-matrix scheme's Π and the sharded portal overlay both store its
// wire form. Closure, the n×n matrix internal/inc and internal/compress keep
// in memory, is expanded from the same SCC kernel.

// MaxClosureVertices caps the condensation a serving path will close: the
// SCC rows, built before classes merge, are k·⌈k/64⌉ words over the k
// strongly connected components whatever the edge count (512 MB here), and a
// vertex costs a payload no bytes. It is also why a class id is a uint16:
// every id is below the class count, which is at most the component count
// and so at most 1<<16.
const MaxClosureVertices = 1 << 16

// checkClosureSize refuses a class count — or a lower bound on one — above
// MaxClosureVertices. CondensedClosure asks it twice, both before the rows
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
	class          []int32 // class[v], numbered by smallest member vertex
	k, words       int     // class count and ⌈k/64⌉, the row stride
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
func closeClasses(g *CSR, comp []int32, k int) *condensation {
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
		comp[v] = canon[t]
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

	// Room for ⌈k/64⌉·64 rows, so merge can transpose them as a square.
	cd.rows = make([]uint64, k*cd.words, cd.words<<6*cd.words)
	for _, c := range canon {
		row := cd.rows[int(c)*cd.words:][:cd.words]
		row[c>>6] |= 1 << (c & 63)
		for _, u := range cd.members[cd.start[c]:cd.start[c+1]] {
			for _, v := range g.dst[g.off[u]:g.off[u+1]] {
				d := comp[v]
				if row[d>>6]>>(d&63)&1 != 0 {
					continue
				}
				for i, w := range cd.rows[int(d)*cd.words:][:cd.words] {
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
	csr := g.Freeze()
	comp, k := csr.SCC()
	cd := closeClasses(csr, comp, k)
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

// CondensedClosure is all-pairs reachability stored over the
// reachability-equivalence classes: class[v] and k rows of ⌈k/64⌉ words, bit
// d of row c set iff every member of class c reaches every member of class d
// (reflexively). A class is a strongly connected component, whose own bit is
// set, or acyclic vertices no path joins, whose own bit is clear when there
// are two or more of them — so every reader answers u = v before it reads a
// bit. Building it is the PTIME preprocessing of Example 3; Reach is the O(1)
// answering step. It is immutable once built or decoded.
type CondensedClosure struct {
	class []uint16
	k     int
	words int
	rows  []uint64
}

// CondensedClosure closes g over its reachability-equivalence classes,
// refusing a graph of more than MaxClosureVertices strongly connected
// components. It checks twice, both before the SCC rows exist: a component of
// s > 1 vertices holds at least s − 1 of the edges, so the count is at least
// |V| − |E|, which turns a payload that claims millions of edgeless vertices
// away before SCC allocates for them; then the count itself. The SCC kernel
// closes the components, merge folds acyclic ones with equal ancestors and
// descendants, and a graph with nothing to merge keeps the kernel's rows.
func (g *CSR) CondensedClosure() (*CondensedClosure, error) {
	if err := checkClosureSize(g.n - g.M()); err != nil {
		return nil, err
	}
	comp, k := g.SCC()
	if err := checkClosureSize(k); err != nil {
		return nil, err
	}
	cd := closeClasses(g, comp, k)
	id, k := cd.merge()
	c := &CondensedClosure{class: make([]uint16, g.n), k: k, words: (k + 63) / 64, rows: cd.rows}
	for v, sc := range cd.class {
		c.class[v] = uint16(id[sc])
	}
	if k < cd.k {
		c.rows = cd.project(id, k)
	}
	return c, nil
}

// merge finds the reachability-equivalence classes over the SCC classes: two
// one-vertex components join when their strict descendant sets (the row
// without its own bit) are equal and so are their strict ancestor sets (the
// column without it). Members of such a class never reach one another — a
// vertex that reaches another has it among its strict descendants and the
// other does not. Components are grouped by descendants first; only when two
// share them are the rows transposed in place and grouped by ancestors, so
// the merge needs no memory of the rows' size. It returns every SCC class's
// merged id — classes numbered by smallest member, which is their first SCC
// class's, so in SCC order — and the merged count. The rows are left as they
// were when nothing merged, and transposed for project otherwise.
func (cd *condensation) merge() (id []int32, k int) {
	w := cd.words
	row := func(c int32) []uint64 { return cd.rows[int(c)*w:][:w] }
	var single []int32 // the one-vertex components, ascending
	for c := range int32(cd.k) {
		if cd.start[c+1]-cd.start[c] == 1 {
			single = append(single, c)
			row(c)[c>>6] &^= 1 << (c & 63) // strict until the groups are found
		}
	}
	leader := make([]int32, cd.k) // the smallest SCC class c merges with
	for c := range leader {
		leader[c] = int32(c)
	}
	byDesc := firstEqual(len(single), func(i int) []uint64 { return row(single[i]) })
	shared := make([]int32, len(single))
	for _, f := range byDesc {
		shared[f]++
	}
	var cand []int32 // positions in single of those sharing their descendants
	for i, f := range byDesc {
		if shared[f] > 1 {
			cand = append(cand, int32(i))
		}
	}
	if len(cand) > 0 {
		cd.transpose() // row c is now column c: c's strict ancestors
		byAnc := firstEqual(len(cand), func(j int) []uint64 { return row(single[cand[j]]) })
		keys := make([]uint64, 2*len(cand))
		for j, i := range cand {
			keys[2*j], keys[2*j+1] = uint64(byDesc[i]), uint64(byAnc[j])
		}
		byKey := firstEqual(len(cand), func(j int) []uint64 { return keys[2*j:][:2] })
		for j, f := range byKey {
			leader[single[cand[j]]] = single[cand[f]]
		}
	}
	for _, c := range single {
		row(c)[c>>6] |= 1 << (c & 63)
	}
	id = make([]int32, cd.k)
	for c, l := range leader {
		if l == int32(c) {
			id[c] = int32(k)
			k++
		} else {
			id[c] = id[l]
		}
	}
	if len(cand) > 0 && k == cd.k {
		cd.transpose()
	}
	return id, k
}

// firstEqual returns, for each i < n, the smallest j ≤ i whose key is equal
// to i's. Keys are bucketed by a hash of their words — head holds a bucket's
// latest distinct key, next the one before it — and compared whole within a
// bucket.
func firstEqual(n int, key func(int) []uint64) []int32 {
	first, next := make([]int32, n), make([]int32, n)
	head := make(map[uint64]int32, n)
	for i := range n {
		ki := key(i)
		h := uint64(len(ki))
		for _, x := range ki {
			h = (h ^ x) * 0x9E3779B97F4A7C15
			h ^= h >> 29
		}
		first[i] = int32(i)
		j, ok := head[h]
		for ; ok && j >= 0; j = next[j] {
			if slices.Equal(key(int(j)), ki) {
				first[i] = j
				break
			}
		}
		if first[i] == int32(i) {
			next[i] = -1
			if ok {
				next[i] = head[h]
			}
			head[h] = int32(i)
		}
	}
	return first
}

// transpose transposes the rows in place as the square bit matrix of
// ⌈k/64⌉·64 rows their capacity holds — bit d of row c trades places with
// bit c of row d — one pair of 64×64 blocks at a time, skipping a pair with
// no bit set. The rows past k are zero before and after.
func (cd *condensation) transpose() {
	w := cd.words
	m := cd.rows[:w<<6*w]
	var a, b [64]uint64
	for r := range w {
		for c := r; c < w; c++ {
			nonzero := uint64(0)
			for i := range 64 {
				a[i], b[i] = m[(r<<6+i)*w+c], m[(c<<6+i)*w+r]
				nonzero |= a[i] | b[i]
			}
			if nonzero == 0 {
				continue
			}
			transpose64(&a)
			transpose64(&b)
			for i := range 64 {
				m[(c<<6+i)*w+r], m[(r<<6+i)*w+c] = a[i], b[i]
			}
		}
	}
}

// transpose64 transposes a 64×64 bit block in place — bit j of a[i] trades
// places with bit i of a[j] — by swapping off-diagonal sub-blocks of 32, 16,
// …, 1 bits in turn.
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF) // the low s bits of every 2s
	for s := 32; s != 0; s >>= 1 {
		for base := 0; base < 64; base += 2 * s {
			for i := base; i < base+s; i++ {
				t := (a[i]>>s ^ a[i+s]) & m
				a[i] ^= t << s
				a[i+s] ^= t
			}
		}
		m ^= m << (s >> 1)
	}
}

// project lays out the rows over the k merged classes from the rows merge
// left transposed: bit i of merged row j is set iff the first SCC class of j
// reaches the first SCC class of i — members of one class share both sets, so
// any one answers for all — and a class of two or more acyclic vertices, none
// of which reaches another, clears its own bit.
func (cd *condensation) project(id []int32, k int) []uint64 {
	w := (k + 63) / 64
	rows := make([]uint64, k*w)
	first := make([]uint64, cd.words) // the first SCC class of every merged class
	size := make([]int32, k)          // SCC classes per merged class
	for c, i := range id {
		if size[i] == 0 {
			first[c>>6] |= 1 << (c & 63)
		}
		size[i]++
	}
	for c, i := range id {
		if first[c>>6]>>(c&63)&1 == 0 {
			continue
		}
		for wi, x := range cd.rows[c*cd.words:][:cd.words] { // what reaches c
			for x &= first[wi]; x != 0; x &= x - 1 {
				j := id[wi<<6+bits.TrailingZeros64(x)]
				rows[int(j)*w+int(i>>6)] |= 1 << (i & 63)
			}
		}
	}
	for i, n := range size {
		if n > 1 {
			rows[i*w+i>>6] &^= 1 << (i & 63)
		}
	}
	return rows
}

// N reports the vertex count.
func (c *CondensedClosure) N() int { return len(c.class) }

// Classes reports k, the number of reachability-equivalence classes: at most
// the number of strongly connected components, which MaxClosureVertices caps.
func (c *CondensedClosure) Classes() int { return c.k }

// Class reports v's class: vertices of one class have the same ancestors and
// the same descendants, so they share every row and column. Class-mates reach
// each other when the class is a strongly connected component, and never
// when it is acyclic.
func (c *CondensedClosure) Class(v int) int { return int(c.class[v]) }

// Reach answers a reachability query in O(1): u = v, or two loads and a bit
// test.
func (c *CondensedClosure) Reach(u, v int) bool {
	d := c.class[v]
	return u == v || c.rows[int(c.class[u])*c.words+int(d>>6)]>>(d&63)&1 != 0
}

// ReachFrom sets bit v of row for every v that u reaches: u's class row,
// expanded over the members, and u itself.
func (c *CondensedClosure) ReachFrom(u int, row []uint64) {
	c.ReachFromClass(c.Class(u), row)
	row[u>>6] |= 1 << (u & 63)
}

// ReachFromClass sets bit v of row for every v that every member of class cl
// reaches: its row, expanded over the members — which include cl's own only
// when it is strongly connected. It is what the class's members share, so a
// caller may expand it once for all of them.
func (c *CondensedClosure) ReachFromClass(cl int, row []uint64) {
	from := c.rows[cl*c.words:][:c.words]
	for v, d := range c.class {
		if from[d>>6]>>(d&63)&1 != 0 {
			row[v>>6] |= 1 << (v & 63)
		}
	}
}

// ReachTo sets bit u of col for every u that reaches v: the column of v's
// class, expanded over the members, and v itself.
func (c *CondensedClosure) ReachTo(v int, col []uint64) {
	d := c.class[v]
	to := c.rows[d>>6:]
	for u, cu := range c.class {
		if to[int(cu)*c.words]>>(d&63)&1 != 0 {
			col[u>>6] |= 1 << (u & 63)
		}
	}
	col[v>>6] |= 1 << (v & 63)
}

// The wire form, little-endian throughout:
//
//	k (4 bytes) ‖ class ids, w bits each, in ⌈n·w/64⌉ 8-byte words ‖ k rows of ⌈k/64⌉ 8-byte words
//
// w = bits.Len(k−1) is the fewest bits that number k classes: 0 when k = 1,
// where every vertex is in class 0 and the ids take no bytes at all. Vertex
// v's id is bits v·w to v·w+w−1 of the id words (bit b in word b/64), and the
// bits past the n-th id are zero. The vertex count is the caller's (the
// scheme's header, the summary's portal list), so the length of the form is a
// function of n and its first four bytes.

// idWidth is w, the bits a class id takes when there are k classes.
func idWidth(k int) int { return bits.Len(uint(max(k, 1) - 1)) }

// idsLen is the length of the id words of n vertices' w-bit ids.
func idsLen(n, w int) int { return 8 * ((n*w + 63) / 64) }

// wireLen is the length of the form of k classes over n vertices.
func wireLen(n, k int) int { return 4 + idsLen(n, idWidth(k)) + 8*k*((k+63)/64) }

// WireLen reports the length of the wire form.
func (c *CondensedClosure) WireLen() int {
	return 4 + idsLen(len(c.class), idWidth(c.k)) + 8*len(c.rows)
}

// AppendWire appends the wire form and returns the extended slice. It is the
// one emitter of the layout: the ids are packed through a 64-bit accumulator,
// an id that straddles two words leaving its high bits for the next.
func (c *CondensedClosure) AppendWire(dst []byte) []byte {
	dst = slices.Grow(dst, c.WireLen())
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.k))
	if w := uint(idWidth(c.k)); w > 0 {
		var acc uint64
		filled := uint(0) // bits of acc in use, always < 64
		for _, id := range c.class {
			acc |= uint64(id) << filled
			if filled += w; filled >= 64 {
				dst = binary.LittleEndian.AppendUint64(dst, acc)
				filled -= 64
				acc = uint64(id) >> (w - filled) // 0 when the id ended the word
			}
		}
		if filled > 0 {
			dst = binary.LittleEndian.AppendUint64(dst, acc)
		}
	}
	for _, w := range c.rows {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// classAt reads the id of vertex v off the id words: the w bits from bit v·w.
func classAt(ids []byte, v, w int) int {
	if w == 0 {
		return 0
	}
	s := uint(v * w)
	off, sh := 8*int(s>>6), s&63
	x := binary.LittleEndian.Uint64(ids[off:]) >> sh
	if sh+uint(w) > 64 {
		x |= binary.LittleEndian.Uint64(ids[off+8:]) << (64 - sh)
	}
	return int(x & (1<<w - 1))
}

// CondensedWire is a wire form as FrameCondensedClosure cut it: exactly the
// bytes the form spans, its class count checked against the vertex count it
// was framed over.
type CondensedWire []byte

// FrameCondensedClosure reads the class count off the front of b — a wire
// form over n vertices, possibly with something behind it — and checks it
// against everything that can be checked in O(1): 1 ≤ k ≤ min(n,
// MaxClosureVertices), or k = 0 for no vertices, and b long enough for the
// form. It returns the form cut to its length. The ids and rows inside are
// DecodeCondensedClosure's to check, or, for the two ids a probe reads,
// ProbeCondensedClosure's.
func FrameCondensedClosure(b []byte, n int) (CondensedWire, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("graph: condensed closure is %d bytes, shorter than its class count", len(b))
	}
	k64 := uint64(binary.LittleEndian.Uint32(b))
	if k64 > uint64(n) || k64 > MaxClosureVertices || (k64 == 0) != (n == 0) {
		return nil, fmt.Errorf("graph: condensed closure claims %d classes over %d vertices (limit %d)", k64, n, MaxClosureVertices)
	}
	k := int(k64)
	size := wireLen(n, k)
	if len(b) < size {
		return nil, fmt.Errorf("graph: condensed closure is %d bytes, %d classes over %d vertices take %d", len(b), k, n, size)
	}
	return CondensedWire(b[:size]), nil
}

func classError(v, id, k int) error {
	return fmt.Errorf("graph: condensed closure puts vertex %d in class %d of %d", v, id, k)
}

// DecodeCondensedClosure parses and validates the wire form over n vertices:
// exact length, a class count in range, every class id below it and zeros
// past the last — everything a probe or a bulk read indexes by, checked once.
func DecodeCondensedClosure(b []byte, n int) (*CondensedClosure, error) {
	wire, err := FrameCondensedClosure(b, n)
	if err != nil {
		return nil, err
	}
	if len(b) != len(wire) {
		return nil, fmt.Errorf("graph: condensed closure is %d bytes, a form over %d vertices of its class count takes %d", len(b), n, len(wire))
	}
	k := int(binary.LittleEndian.Uint32(b))
	w := idWidth(k)
	ids, rows := b[4:4+idsLen(n, w)], b[4+idsLen(n, w):]
	c := &CondensedClosure{class: make([]uint16, n), k: k, words: (k + 63) / 64}
	for v := range c.class {
		id := classAt(ids, v, w)
		if id >= k {
			return nil, classError(v, id, k)
		}
		c.class[v] = uint16(id)
	}
	if used := uint(n * w); used&63 != 0 && binary.LittleEndian.Uint64(ids[len(ids)-8:])>>(used&63) != 0 {
		return nil, fmt.Errorf("graph: condensed closure has bits set past its %d class ids", n)
	}
	c.rows = make([]uint64, k*c.words)
	for i := range c.rows {
		c.rows[i] = binary.LittleEndian.Uint64(rows[8*i:])
	}
	return c, nil
}

// ProbeCondensedClosure answers reach(u, v) straight off a form framed over n
// vertices, for a caller holding bytes nobody has decoded: the frame has
// checked the class count and the length, so the probe reads two w-bit class
// ids, checks each below k, and answers u = v or one bit — never the ids it
// does not read. u and v must lie in [0, n).
func ProbeCondensedClosure(c CondensedWire, n, u, v int) (bool, error) {
	k := int(binary.LittleEndian.Uint32(c))
	w := idWidth(k)
	ids := c[4:]
	cu, cv := classAt(ids, u, w), classAt(ids, v, w)
	if cu >= k {
		return false, classError(u, cu, k)
	}
	if cv >= k {
		return false, classError(v, cv, k)
	}
	bit := cu*((k+63)/64)<<6 + cv
	return u == v || ids[idsLen(n, w)+bit>>3]>>(bit&7)&1 != 0, nil
}
