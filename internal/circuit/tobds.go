package circuit

// Reduction from CVP to Breadth-Depth Search.
//
// Theorem 5 proves BDS complete for ΠTP by a generic argument: BDS is
// P-complete [21], so for every L ∈ P there EXISTS an NC function h with
// x ∈ L iff h(x) ∈ BDS; the paper never exhibits the gadget construction,
// which lives in the P-completeness literature. Where the paper cites a
// construction without giving it, this repository substitutes an executable
// stand-in with the same observable properties; here we implement a
// *reference* h: evaluate the circuit (PTIME) and emit a canonical BDS
// instance carrying the answer. Every observable
// property the paper uses — answer preservation, composability under the
// Lemma 2/3 machinery, Π-tractability of the image — holds for this h and
// is exercised by tests. For the formula (tree-shaped circuit) subclass the
// evaluation itself is in NC (Buss's formula-value problem is in NC¹), so
// for that subclass this very map is a genuine ≤NC_fa reduction.

import (
	"pitract/internal/graph"
)

// BDSInstance is an instance of the breadth-depth search decision problem:
// an undirected numbered graph and a node pair; the answer is "is U visited
// before V".
type BDSInstance struct {
	G    *graph.Graph
	U, V int
}

// canonicalBDSGraph is a fixed five-vertex undirected graph whose
// breadth-depth search order from vertex 0 is 0,1,2,3,4 (a star 0—{1,2,3}
// with the extra edge 2—4, cf. the bds package tests). Embedding the answer
// in a non-path graph keeps the downstream BDS machinery honest: answering
// still requires running (or having preprocessed) an actual search.
func canonicalBDSGraph() *graph.Graph {
	g := graph.New(5, false)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(2, 4)
	g.Normalize()
	return g
}

// ReduceInstanceToBDS maps a CVP instance to a BDS instance with the same
// answer: h(x) ∈ BDS iff x ∈ CVP. The visit order of the canonical graph
// puts 3 before 4, so a true instance asks (3,4) and a false one (4,3).
func ReduceInstanceToBDS(in *Instance) (*BDSInstance, error) {
	val, err := in.Eval()
	if err != nil {
		return nil, err
	}
	b := &BDSInstance{G: canonicalBDSGraph()}
	if val {
		b.U, b.V = 3, 4
	} else {
		b.U, b.V = 4, 3
	}
	return b, nil
}
