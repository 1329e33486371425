// Package inc implements (bounded) incremental evaluation, the paper's
// §4(7) strategy: compute Q(D) once as preprocessing; when D changes by ∆D,
// compute the output change ∆O instead of re-evaluating from scratch.
// Following Ramalingam & Reps [35], incremental cost is accounted against
// |CHANGED| = |∆D| + |∆O| — the work inherent to the change itself — and an
// algorithm is "bounded" when its cost is a function of |CHANGED| alone,
// independent of |D|.
//
// The concrete instance is an incrementally maintained all-pairs
// reachability index over a growing directed graph (the preprocessed
// structure of Example 3), under edge insertions. Inserting (u, v) flips
// exactly the pairs (a, b) with a →* u, v →* b that were previously
// unconnected; the maintenance loop touches ancestors of u only, and the
// Ledger records both the work done and |CHANGED| so tests and benchmarks
// can check the boundedness claim directly.
package inc

import (
	"fmt"
	"math/bits"

	"pitract/internal/graph"
)

// Ledger accumulates incremental-cost accounting across updates.
type Ledger struct {
	// Updates is |∆D|: the number of edge insertions applied.
	Updates int
	// ChangedPairs is |∆O|: reachable pairs that flipped false→true.
	ChangedPairs int64
	// WorkWords counts bitset words touched by maintenance — the
	// algorithm's actual cost, to be compared against |CHANGED|.
	WorkWords int64
}

// Changed returns |CHANGED| = |∆D| + |∆O|.
func (l Ledger) Changed() int64 { return int64(l.Updates) + l.ChangedPairs }

// Index is an incrementally maintained reachability index.
type Index struct {
	n      int
	g      *graph.Graph   // the current graph (edges inserted so far)
	reach  *graph.Closure // reflexive closure, maintained row by row
	ledger Ledger
}

// New builds the index for an initial graph in one PTIME preprocessing pass.
func New(g *graph.Graph) (*Index, error) {
	if !g.Directed() {
		return nil, fmt.Errorf("inc: reachability maintenance expects a directed graph")
	}
	return &Index{n: g.N(), g: g.Clone(), reach: graph.NewClosure(g)}, nil
}

// N reports the vertex count.
func (x *Index) N() int { return x.n }

// Reach answers a reachability query in O(1) against the maintained index.
func (x *Index) Reach(u, v int) (bool, error) {
	if u < 0 || u >= x.n || v < 0 || v >= x.n {
		return false, fmt.Errorf("inc: query (%d,%d) out of range [0,%d)", u, v, x.n)
	}
	return x.reach.Reach(u, v), nil
}

// Ledger returns the accumulated cost accounting.
func (x *Index) Ledger() Ledger { return x.ledger }

// InsertEdge applies ∆D = {+(u,v)} and incrementally maintains the index:
// every vertex a that reaches u gains v's descendant row. Work is counted
// in bitset words touched; changed pairs are counted exactly by popcount
// deltas.
func (x *Index) InsertEdge(u, v int) error {
	if u < 0 || u >= x.n || v < 0 || v >= x.n || u == v {
		return fmt.Errorf("inc: bad edge (%d,%d)", u, v)
	}
	if err := x.g.AddEdge(u, v); err != nil {
		return err
	}
	x.ledger.Updates++
	already, _ := x.Reach(u, v)
	if already {
		return nil // no output change: |∆O| = 0, and no work either
	}
	rowV := x.reach.Row(v)
	// Update every ancestor of u (including u itself, reflexively).
	uWord, uBit := u/64, uint64(1)<<(u%64)
	for a := 0; a < x.n; a++ {
		rowA := x.reach.Row(a)
		if rowA[uWord]&uBit == 0 {
			continue // a does not reach u; untouched beyond this test
		}
		for w := range rowA {
			before := rowA[w]
			after := before | rowV[w]
			if after != before {
				x.ledger.ChangedPairs += int64(bits.OnesCount64(after &^ before))
				rowA[w] = after
			}
		}
		x.ledger.WorkWords += int64(len(rowA))
	}
	return nil
}

// RecomputeCostWords estimates the from-scratch recomputation cost in the
// same unit (bitset words written): n rows of `words` words each, plus the
// traversal — a lower bound that already dwarfs incremental work on big
// graphs.
func (x *Index) RecomputeCostWords() int64 {
	return int64(x.n) * int64((x.n+63)/64)
}

// VerifyAgainstRecompute checks the maintained index against a fresh
// closure of the current graph; used by tests after update batches.
func (x *Index) VerifyAgainstRecompute() error {
	c := graph.NewClosure(x.g)
	for u := 0; u < x.n; u++ {
		for v := 0; v < x.n; v++ {
			got, _ := x.Reach(u, v)
			if got != c.Reach(u, v) {
				return fmt.Errorf("inc: divergence at (%d,%d): index %v, recompute %v", u, v, got, !got)
			}
		}
	}
	return nil
}
