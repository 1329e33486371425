package schemes

// Typed prepared answerers: each is a scheme's Prepare, its one answering
// procedure ((*core.Scheme).Answer is Prepare-then-probe). The closure,
// labels, CVP and sorted-key forms validate their payload once, so a probe
// indexes without re-checking (the key files' form is in keys.go: their
// header and samples checked, over Π's own bytes); the search-per-query
// baselines (BFS, point scan) decode their graph or relation once instead of
// per query. Where Π is fixed-width records with nothing to frame or
// validate — the BDS pos file — the scheme declares core.ProbeInPlace over
// its probe instead. Either way Π is held once.
//
// Every answerer is pinned against its scheme's Language, the independent
// reference decider (TestPreparedMatchesLanguage): the same verdicts, and a
// refusal for every malformed or out-of-range query. A corrupt Π is refused
// once, at Prepare; the serving layer (store.Store) surfaces that error on
// every answer.
//
// Concurrency: prepared forms are immutable after Prepare returns (the
// decoded graph is normalized up front so traversals never mutate it), so
// Answer is safe from any number of goroutines (core/batch.go).

import (
	"fmt"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/relation"
)

// --- local reach: the typed seam under sharded reachability ---------------------

// LocalReach is the typed, allocation-free face of a prepared reachability
// answerer (closure, labels): the same verdicts as Answer, without a
// query to encode, decode, or range-check. internal/shard reads it — the
// same-shard verdict through Reach, the per-vertex portal reach rows and
// the portal overlay through the two bulk reads — so sharded reachability
// never issues an encoded local probe. Vertex arguments must lie in
// [0, Nodes()); bulk reads set bits in a caller-zeroed bitset of
// ⌈Nodes()/64⌉ words.
type LocalReach interface {
	// Nodes reports the vertex count.
	Nodes() int
	// Reach reports whether u reaches v (reflexively).
	Reach(u, v int) bool
	// ReachFrom sets bit v of row for every v that u reaches, u itself
	// included. For the closure that is u's class row and u: a vertex
	// sharing u's class only because it has u's ancestors and descendants
	// is not reached, and its bit stays clear.
	ReachFrom(u int, row []uint64)
	// ReachTo sets bit u of col for every u that reaches v, v itself
	// included — and, as for ReachFrom, no acyclic class-mate of v.
	ReachTo(v int, col []uint64)
}

// --- reachability closure matrix ---------------------------------------------

// closureAnswerer is the validated closure over the reachability-equivalence
// classes, decoded once; each probe is a bounds check, u = v or two class
// loads and a bit test. Reach, ReachFrom and ReachTo are
// graph.CondensedClosure's own.
type closureAnswerer struct {
	*graph.CondensedClosure
}

// Answer implements core.Answerer.
func (a closureAnswerer) Answer(q []byte) (bool, error) {
	u, v, err := DecodeNodePairQuery(q)
	if err != nil {
		return false, err
	}
	if n := a.N(); u < 0 || u >= n || v < 0 || v >= n {
		return false, fmt.Errorf("schemes: node pair (%d,%d) out of range [0,%d)", u, v, n)
	}
	return a.Reach(u, v), nil
}

// Nodes implements LocalReach.
func (a closureAnswerer) Nodes() int { return a.N() }

// prepareClosure validates the payload once — the framing (closureParts),
// then every class id a probe or a bulk read will index by — and decodes the
// closure.
func prepareClosure(pd []byte) (core.Answerer, error) {
	n, cond, _, err := closureParts(pd)
	if err != nil {
		return nil, err
	}
	c, err := graph.DecodeCondensedClosure(cond, n)
	if err != nil {
		return nil, fmt.Errorf("schemes: %w", err)
	}
	return closureAnswerer{c}, nil
}

// --- reachability BFS baseline ------------------------------------------------

// bfsAnswerer holds the graph decoded once into its two-way CSR
// (≈ 8·(|V|+|E|) bytes beside Π). A query is still a search — O(|V|+|E|) on a
// long path, which is why the scheme keeps declaring Traversal — but a
// bidirectional one on pooled scratch that stops when the two sides meet or
// either runs dry, instead of a decode plus a whole single-source BFS. The
// CSR is immutable, so askers share it freely.
type bfsAnswerer struct {
	g *graph.CSR
}

// Answer implements core.Answerer.
func (a *bfsAnswerer) Answer(q []byte) (bool, error) {
	u, v, err := DecodeNodePairQuery(q)
	if err != nil {
		return false, err
	}
	if u < 0 || u >= a.g.N() || v < 0 || v >= a.g.N() {
		return false, fmt.Errorf("schemes: node pair (%d,%d) out of range", u, v)
	}
	return a.g.Reachable(u, v), nil
}

// prepareBFS decodes the graph once, straight into the CSR the search
// walks, so a query pays the search and not a re-decode of O(|V|+|E|) bytes.
func prepareBFS(pd []byte) (core.Answerer, error) {
	g, err := graph.Decode(pd)
	if err != nil {
		return nil, err
	}
	return &bfsAnswerer{g: g}, nil
}

// --- CVP gate values ----------------------------------------------------------

// cvpGateAnswerer is the validated gate-value bitset: header checked once,
// probes are a bounds check plus one byte read.
type cvpGateAnswerer struct {
	n    int
	bits []byte
}

// Answer implements core.Answerer.
func (a *cvpGateAnswerer) Answer(q []byte) (bool, error) {
	vs, err := core.DecodeUint64(q, 1)
	if err != nil {
		return false, err
	}
	g := int(vs[0])
	if g < 0 || g >= a.n {
		return false, fmt.Errorf("schemes: gate %d out of range [0,%d)", g, a.n)
	}
	return a.bits[g/8]&(1<<(g%8)) != 0, nil
}

// prepareCVPGates validates the gate-value header once.
func prepareCVPGates(pd []byte) (core.Answerer, error) {
	n, err := gateValueHeader(pd)
	if err != nil {
		return nil, err
	}
	return &cvpGateAnswerer{n: n, bits: pd[8:]}, nil
}

// --- point-selection scan baseline --------------------------------------------

// pointScanAnswerer holds the relation decoded once; each query scans the
// in-memory tuples instead of re-decoding the whole relation.
type pointScanAnswerer struct {
	rel *relation.Relation
}

// Answer implements core.Answerer.
func (a *pointScanAnswerer) Answer(q []byte) (bool, error) {
	c, err := DecodePointQuery(q)
	if err != nil {
		return false, err
	}
	return a.rel.ScanPointSelect("key", relation.Int(c))
}

// preparePointScan decodes the relation once. The scan per query remains —
// that O(|D|) cost is exactly what the baseline exists to demonstrate — but
// the per-query decode does not.
func preparePointScan(pd []byte) (core.Answerer, error) {
	rel, err := relation.Decode(pd)
	if err != nil {
		return nil, err
	}
	return &pointScanAnswerer{rel: rel}, nil
}
