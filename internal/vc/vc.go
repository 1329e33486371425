// Package vc implements Vertex Cover with Buss kernelization, the paper's
// §4(9) case study.
//
// VC is NP-complete in general, but the paper observes (via parameterized
// complexity) that instances can be preprocessed by Buss' kernelization in
// O(|E|) time so that for fixed K, deciding whether a vertex cover of size
// ≤ K exists takes time independent of the original graph size — i.e. for
// fixed K, VC is in ΠTP.
//
// Buss' rules: a vertex of degree > K must belong to every cover of size
// ≤ K (otherwise all of its > K neighbours would be needed), so take it and
// decrement K; after exhausting that rule, a yes-instance can retain at
// most K·K' edges, so larger remainders are rejected outright. What is left
// — the kernel — has at most K'² edges and 2K'² non-isolated vertices and
// is decided by a bounded search tree in O(2^K' · K'²).
package vc

import (
	"fmt"
	"math/rand"

	"pitract/internal/graph"
)

// Kernel is the result of Buss kernelization.
type Kernel struct {
	// Forced lists vertices (of the original graph) every size-≤K cover
	// must contain.
	Forced []int
	// Edges are the surviving kernel edges in original vertex ids.
	Edges [][2]int
	// Budget is the remaining cover budget K - len(Forced).
	Budget int
	// Rejected is true when kernelization already refutes the instance
	// (too many forced vertices or too many surviving edges).
	Rejected bool
}

// Kernelize applies Buss' rules to an undirected graph with budget k.
func Kernelize(g *graph.Graph, k int) (*Kernel, error) {
	if g.Directed() {
		return nil, fmt.Errorf("vc: vertex cover is defined on undirected graphs")
	}
	if k < 0 {
		return nil, fmt.Errorf("vc: negative budget %d", k)
	}
	n := g.N()
	removed := make([]bool, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
	}
	ker := &Kernel{Budget: k}
	// Repeatedly take any vertex with degree > remaining budget.
	for {
		victim := -1
		for v := 0; v < n; v++ {
			if !removed[v] && deg[v] > ker.Budget {
				victim = v
				break
			}
		}
		if victim < 0 {
			break
		}
		if ker.Budget == 0 {
			// An uncovered edge remains but the budget is spent.
			ker.Rejected = true
			return ker, nil
		}
		removed[victim] = true
		ker.Forced = append(ker.Forced, victim)
		ker.Budget--
		for _, w := range g.Neighbors(victim) {
			if !removed[w] {
				deg[w]--
			}
		}
	}
	// Collect surviving edges.
	for _, e := range g.Edges() {
		if !removed[e[0]] && !removed[e[1]] {
			ker.Edges = append(ker.Edges, e)
		}
	}
	// Buss bound: a yes-instance keeps at most Budget² edges, since every
	// remaining vertex covers ≤ Budget edges.
	if len(ker.Edges) > ker.Budget*ker.Budget {
		ker.Rejected = true
	}
	return ker, nil
}

// searchEdges decides by bounded search whether the given edges admit a
// cover of size ≤ k: pick an uncovered edge, branch on covering it with
// either endpoint.
func searchEdges(edges [][2]int, k int) bool {
	if len(edges) == 0 {
		return true
	}
	if k == 0 {
		return false
	}
	e := edges[0]
	for _, pick := range []int{e[0], e[1]} {
		var rest [][2]int
		for _, f := range edges[1:] {
			if f[0] != pick && f[1] != pick {
				rest = append(rest, f)
			}
		}
		if searchEdges(rest, k-1) {
			return true
		}
	}
	return false
}

// Decide reports whether g has a vertex cover of size ≤ k, using Buss
// kernelization followed by the bounded search tree. For fixed k the work
// after kernelization is independent of |G|.
func Decide(g *graph.Graph, k int) (bool, error) {
	ker, err := Kernelize(g, k)
	if err != nil {
		return false, err
	}
	if ker.Rejected {
		return false, nil
	}
	return searchEdges(ker.Edges, ker.Budget), nil
}

// PlantCover returns a seeded undirected graph on n vertices whose edges
// all touch a planted cover of the given size, so its minimum cover is at
// most that size. Useful for workload generation with known answers.
func PlantCover(n, coverSize, m int, seed int64) *graph.Graph {
	g := graph.New(n, false)
	if coverSize <= 0 || n < 2 {
		return g
	}
	cover := make([]int, coverSize)
	for i := range cover {
		cover[i] = i // vertices 0..coverSize-1 form the planted cover
	}
	rng := rand.New(rand.NewSource(seed))
	for e := 0; e < m; e++ {
		u := cover[rng.Intn(coverSize)]
		v := rng.Intn(n)
		if u != v {
			g.MustAddEdge(u, v)
		}
	}
	g.Normalize()
	return g
}
