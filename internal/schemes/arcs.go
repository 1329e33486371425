package schemes

// The arc file is a graph's edge set in keys.go's sorted key file — one
// Elias–Fano sequence — over the arc ids u·n + v of a graph on n vertices, an
// undirected edge stored once, as its u < v arc. It is a function of the edge
// set, and at about L + 2 bits an arc, L = ⌊log₂(n²/m)⌋, a fraction of the
// graph's uvarint pairs. Two Π carry one: the closure scheme's, as its graph,
// and the sharded reachability summary (internal/shard), for its cross-shard
// edges. ArcFile is the seam both read and maintain it through — encode
// (EncodeArcs, arcFileBytes), stream (Each), probe (Has) and splice (Edit) —
// so there is one codec, the key file's.

import (
	"fmt"
	"slices"

	"pitract/internal/graph"
)

// ArcFile is an arc file over n vertices whose header has been checked
// against its length and its id range against n².
type ArcFile struct {
	f        keyFile
	n        int
	directed bool
}

// arcID is the arc file's key, biased, of the arc u→v over n vertices.
func arcID(n, u, v int) uint64 { return biasKey(int64(u)*int64(n) + int64(v)) }

// ParseArcFile checks b, in O(1), as the arc file of a graph on n vertices:
// the key file's header against the length, and the smallest and largest id
// below n². That the ids rise, and that none is a self-loop or an undirected
// arc stored as u > v, is checked by whoever streams them (Each).
func ParseArcFile(b []byte, n int, directed bool) (ArcFile, error) {
	// %v, not %w: a file without the key file's tag is corrupt, not an older
	// layout.
	f, err := parseKeyFile(b)
	if err != nil {
		return ArcFile{}, fmt.Errorf("schemes: arc file: %v", err)
	}
	if lo, hi := f.min^1<<63, f.max^1<<63; f.n > 0 && (lo > hi || hi >= uint64(n)*uint64(n)) {
		return ArcFile{}, fmt.Errorf("schemes: arc file spans arc ids [%d, %d], over %d vertices", int64(lo), int64(hi), n)
	}
	return ArcFile{f: f, n: n, directed: directed}, nil
}

// EncodeArcs lays out the arc file of arcs over n vertices, given in any
// order — an undirected edge either way round — with repeats dropped.
func EncodeArcs(n int, directed bool, arcs [][2]int) ([]byte, error) {
	ids := make([]int64, len(arcs))
	for i, e := range arcs {
		u, v := e[0], e[1]
		if !directed && u > v {
			u, v = v, u
		}
		ids[i] = int64(u)*int64(n) + int64(v)
	}
	return keyFileBytes(dedupSorted(ids))
}

// arcFileBytes lays out g's arcs as an arc file, pushed straight from the
// CSR rows in keyBlock runs: ascending rows walked in vertex order are
// ascending ids. An undirected edge is its u < v arc, the tail of u's row.
func arcFileBytes(g *graph.CSR) ([]byte, error) {
	n, directed := g.N(), g.Directed()
	out := func(u int) []int32 {
		l := g.Neighbors(u)
		if !directed {
			i, _ := slices.BinarySearch(l, int32(u))
			l = l[i:]
		}
		return l
	}
	m := uint64(g.M())
	if err := checkKeyCount(m); err != nil {
		return nil, err
	}
	if m == 0 {
		return newKeyWriter(0, 0, 0).bytes()
	}
	lo, hi := 0, n-1
	for len(out(lo)) == 0 {
		lo++
	}
	for len(out(hi)) == 0 {
		hi--
	}
	last := out(hi)
	w := newKeyWriter(m, arcID(n, lo, int(out(lo)[0])), arcID(n, hi, int(last[len(last)-1])))
	var block [keyBlock]uint64
	b := block[:0]
	for u := lo; u <= hi; u++ {
		for _, v := range out(u) {
			if len(b) == keyBlock {
				if err := w.push(b...); err != nil {
					return nil, err
				}
				b = b[:0]
			}
			b = append(b, arcID(n, u, int(v)))
		}
	}
	if err := w.push(b...); err != nil {
		return nil, err
	}
	return w.bytes()
}

// Bytes returns the file itself.
func (a *ArcFile) Bytes() []byte { return a.f.pd }

// Len returns the number of arcs.
func (a *ArcFile) Len() int { return int(a.f.n) }

// Each streams the arcs in ascending order. The reader checks that the ids
// rise; Each refuses a self-loop and an undirected arc stored as u > v. The
// ids rise, so u only moves forward: it is carried along, not divided out.
func (a *ArcFile) Each(arc func(u, v int) error) error {
	r := a.f.reader()
	var block [keyBlock]uint64
	n := uint64(a.n)
	u, base := 0, uint64(0) // base = u·n, the first id of u's arcs
	for left := a.f.n; left > 0; {
		b := block[:min(left, keyBlock)]
		left -= uint64(len(b))
		if err := r.read(b); err != nil {
			return err
		}
		for _, x := range b {
			id := x ^ 1<<63
			for id-base >= n {
				u, base = u+1, base+n
			}
			v := int(id - base)
			if u == v {
				return fmt.Errorf("schemes: corrupt arc file: self-loop at %d", u)
			}
			if !a.directed && u > v {
				return fmt.Errorf("schemes: corrupt arc file: undirected arc (%d,%d) is not stored as (%d,%d)", u, v, v, u)
			}
			if err := arc(u, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// find probes for the arc u→v (either orientation when undirected): its id,
// the index it is at or goes in at, and whether it is there.
func (a *ArcFile) find(u, v int) (x, at uint64, has bool, err error) {
	if !a.directed && u > v {
		u, v = v, u
	}
	x = arcID(a.n, u, v)
	at, y, err := a.f.nextGEQ(x)
	return x, at, at < a.f.n && y == x, err
}

// Has reports whether the file holds the arc u→v (either orientation when
// undirected): one nextGEQ over the file's own bytes.
func (a *ArcFile) Has(u, v int) (bool, error) {
	_, _, has, err := a.find(u, v)
	return has, err
}

// Edit returns the file with the arc u→v added (insert) or removed, spliced
// from this one, and whether the arc was there before. An insert of a
// present arc and a delete of an absent one return the file unchanged.
func (a *ArcFile) Edit(u, v int, insert bool) (next ArcFile, had bool, err error) {
	x, at, had, err := a.find(u, v)
	if err != nil || had == insert {
		return *a, had, err
	}
	b, err := a.f.edit([]keyEdit{{x, at}}, insert)
	if err != nil {
		return ArcFile{}, had, err
	}
	next, err = ParseArcFile(b, a.n, a.directed)
	return next, had, err
}

// graph streams the file into the CSR of the graph it encodes. Ids in
// ascending order keep every row ascending, so none is sorted.
func (a *ArcFile) graph() (*graph.CSR, error) {
	edges := make([][2]int32, 0, a.Len())
	err := a.Each(func(u, v int) error {
		edges = append(edges, [2]int32{int32(u), int32(v)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return graph.FromArcs(a.n, a.directed, edges), nil
}
