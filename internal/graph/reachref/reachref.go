// Package reachref is the reference quotient the closure's tests hold
// graph.CondensedClosure to: from a reflexive reachability matrix — one search
// per vertex — the reachability-equivalence classes and their rows, one pair
// and one bit at a time. It shares nothing with the kernel (no SCC, no word
// rows, no transpose), so the closure, the closure-matrix scheme and the
// sharded portal overlay are each checked against an independent account of
// the relation.
package reachref

// Classes groups the vertices of reach (reach[u][v]: u reaches v, and
// reach[u][u] for every u) into reachability-equivalence classes: u and v
// share one iff their strict ancestor sets are equal and so are their strict
// descendant sets, strict meaning by a path of at least one arc — so a vertex
// is its own strict ancestor iff another vertex both reaches it and is reached
// by it. Classes are numbered by smallest member; k is their count.
func Classes(reach [][]bool) (class []int, k int) {
	n := len(reach)
	cyclic := make([]bool, n)
	for u := range n {
		for v := range n {
			cyclic[u] = cyclic[u] || (v != u && reach[u][v] && reach[v][u])
		}
	}
	strict := func(from, to int) bool { return reach[from][to] && (from != to || cyclic[from]) }
	same := func(u, v int) bool {
		for w := range n {
			if strict(u, w) != strict(v, w) || strict(w, u) != strict(w, v) {
				return false
			}
		}
		return true
	}
	class = make([]int, n)
	var smallest []int
	for v := range n {
		class[v] = -1
		for c, s := range smallest {
			if same(s, v) {
				class[v] = c
				break
			}
		}
		if class[v] < 0 {
			class[v] = len(smallest)
			smallest = append(smallest, v)
		}
	}
	return class, len(smallest)
}

// Rows lays out the rows over classes 0..k−1 as the wire form stores them: k
// rows of ⌈k/64⌉ little-endian 8-byte words, bit d of row c set iff every
// member of c reaches every member of d.
func Rows(reach [][]bool, class []int, k int) []byte {
	all := make([][]bool, k)
	for c := range all {
		all[c] = make([]bool, k)
		for d := range all[c] {
			all[c][d] = true
		}
	}
	for u, cu := range class {
		for v, cv := range class {
			all[cu][cv] = all[cu][cv] && reach[u][v]
		}
	}
	stride := 8 * ((k + 63) / 64)
	rows := make([]byte, k*stride)
	for c := range all {
		for d, r := range all[c] {
			if r {
				rows[c*stride+d/8] |= 1 << (d % 8)
			}
		}
	}
	return rows
}
