// Package lca implements lowest-common-ancestor preprocessing for trees and
// DAGs, the paper's §4(4) case study (citing Bender et al., J. Algorithms
// 57(2), 2005): preprocess in PTIME, answer LCA(u, v) in O(1).
package lca

import (
	"fmt"

	"pitract/internal/rmq"
)

// Tree answers constant-time LCA queries on a rooted tree via the classic
// Euler-tour + range-minimum reduction: the LCA of u and v is the
// shallowest node between their first occurrences on the Euler tour.
type Tree struct {
	n      int
	first  []int   // first occurrence of each node on the tour
	tour   []int32 // node at each tour position
	depths []int64 // depth at each tour position
	rmq    rmq.Querier
}

// NewTree preprocesses a rooted tree given as a parent array
// (parent[root] == root). It validates that the structure is a single tree.
func NewTree(parent []int, root int) (*Tree, error) {
	n := len(parent)
	if root < 0 || root >= n {
		return nil, fmt.Errorf("lca: root %d out of range [0,%d)", root, n)
	}
	if parent[root] != root {
		return nil, fmt.Errorf("lca: parent[root=%d] = %d, want self-loop", root, parent[root])
	}
	children := make([][]int32, n)
	for v, p := range parent {
		if p < 0 || p >= n {
			return nil, fmt.Errorf("lca: parent[%d] = %d out of range", v, p)
		}
		if v != root {
			if p == v {
				return nil, fmt.Errorf("lca: node %d is a second root", v)
			}
			children[p] = append(children[p], int32(v))
		}
	}
	t := &Tree{n: n, first: make([]int, n)}
	for i := range t.first {
		t.first[i] = -1
	}
	// Iterative Euler tour: push (node, depth, childIndex).
	type frame struct {
		node  int32
		depth int64
		child int
	}
	stack := []frame{{int32(root), 0, 0}}
	t.visit(int32(root), 0)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.child < len(children[f.node]) {
			c := children[f.node][f.child]
			f.child++
			t.visit(c, f.depth+1)
			stack = append(stack, frame{c, f.depth + 1, 0})
		} else {
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				t.visit(top.node, top.depth)
			}
		}
	}
	for v, f := range t.first {
		if f < 0 {
			return nil, fmt.Errorf("lca: node %d unreachable from root %d (cycle or forest)", v, root)
		}
	}
	t.rmq = rmq.NewSparse(t.depths)
	return t, nil
}

func (t *Tree) visit(node int32, depth int64) {
	if t.first[node] < 0 {
		t.first[node] = len(t.tour)
	}
	t.tour = append(t.tour, node)
	t.depths = append(t.depths, depth)
}

// Len reports the number of nodes.
func (t *Tree) Len() int { return t.n }

// LCA returns the lowest common ancestor of u and v in O(1).
func (t *Tree) LCA(u, v int) (int, error) {
	if u < 0 || u >= t.n || v < 0 || v >= t.n {
		return 0, fmt.Errorf("lca: query (%d,%d) out of range [0,%d)", u, v, t.n)
	}
	i, j := t.first[u], t.first[v]
	if i > j {
		i, j = j, i
	}
	return int(t.tour[t.rmq.Query(i, j)]), nil
}

// NaiveLCA walks parent pointers upward — the no-preprocessing baseline:
// O(depth) per query.
func NaiveLCA(parent []int, u, v int) int {
	seen := make(map[int]bool)
	for x := u; ; x = parent[x] {
		seen[x] = true
		if parent[x] == x {
			break
		}
	}
	for x := v; ; x = parent[x] {
		if seen[x] {
			return x
		}
		if parent[x] == x {
			return x
		}
	}
}
