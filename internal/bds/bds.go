// Package bds implements Breadth-Depth Search, the problem the paper proves
// ΠTP-complete (Theorem 5).
//
// BDS (Example 2, citing Greenlaw–Hoover–Ruzzo [21]):
//
//	Input:    an undirected graph G = (V, E) with a numbering on the nodes,
//	          and a pair (u, v) of nodes in V.
//	Question: is u visited before v in the breadth-depth search of G
//	          induced by the vertex numbering?
//
// The search starts at the smallest-numbered node and visits all its
// unvisited neighbours in numbering order, pushing them onto a stack in
// reverse numbering order (so the smallest ends on top). It then continues
// from the node on top of the stack. When the stack empties with unvisited
// nodes remaining (a disconnected graph), the search restarts from the
// smallest unvisited node. BDS is P-complete, which is what makes it the
// "hardest" member of ΠTP.
//
// The package provides the traversal itself — run once, its visit-order list
// M is the Example 5 preprocessing, which internal/schemes lays out as the
// O(1) position array — and the per-query search the preprocessing
// replaces. The Figure-1 pair of factorizations is wired into the framework
// by internal/core.
package bds

import (
	"fmt"

	"pitract/internal/graph"
)

// Search runs the breadth-depth search over g (which must be undirected)
// and returns the visit order: order[i] is the i-th node visited. Every
// node appears exactly once.
func Search(g *graph.Graph) ([]int32, error) {
	if g.Directed() {
		return nil, fmt.Errorf("bds: breadth-depth search is defined on undirected graphs")
	}
	n := g.N()
	visited := make([]bool, n)
	order := make([]int32, 0, n)
	stack := make([]int32, 0, n)
	visit := func(v int32) {
		visited[v] = true
		order = append(order, v)
	}
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		visit(int32(start))
		cur := int32(start)
		for {
			// Visit all unvisited neighbours of cur in increasing order;
			// push them in reverse so the smallest ends on top.
			nbrs := g.Neighbors(int(cur)) // ascending by construction
			firstNew := len(stack)
			for _, w := range nbrs {
				if !visited[w] {
					visit(w)
					stack = append(stack, w)
				}
			}
			// Reverse the freshly pushed run in place.
			for i, j := firstNew, len(stack)-1; i < j; i, j = i+1, j-1 {
				stack[i], stack[j] = stack[j], stack[i]
			}
			if len(stack) == 0 {
				break
			}
			cur = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		}
	}
	return order, nil
}

// AnswerNaive answers a single query with a full fresh search — the Υ′
// factorization of Figure 1 where nothing is preprocessed: PTIME per query.
func AnswerNaive(g *graph.Graph, u, v int) (bool, error) {
	n := g.N()
	if u < 0 || u >= n || v < 0 || v >= n {
		return false, fmt.Errorf("bds: query (%d,%d) out of range [0,%d)", u, v, n)
	}
	if u == v {
		return false, nil // "before" is strict
	}
	order, err := Search(g)
	if err != nil {
		return false, err
	}
	for _, w := range order {
		if int(w) == u {
			return true, nil
		}
		if int(w) == v {
			return false, nil
		}
	}
	return false, fmt.Errorf("bds: query nodes never visited") // unreachable
}
