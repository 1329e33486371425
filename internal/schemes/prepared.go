package schemes

// Typed prepared answerers ((*core.Scheme).Prepare). Each scheme's raw Answer
// re-locates its structure inside the preprocessed string on every call —
// re-framing the closure payload, re-deriving the sorted-file length, or (for
// the search-per-query baselines) re-decoding the entire graph or relation.
// Prepare does that exactly once per Π(D): it validates the payload and
// decodes it into a typed in-memory form whose Answer is only the probe.
//
// Every answerer here is pinned differentially against the raw Answer
// oracle (TestPreparedVsRawDifferential): identical verdicts and identical
// error strings on the same inputs. Validation errors a raw Answer would
// report per query are reported once, at Prepare, with the same message;
// the serving layer (store.Store) surfaces that error on every Answer, so
// the observable behavior of a corrupt Π is unchanged.
//
// Concurrency: prepared forms are immutable after Prepare returns (the
// decoded graph is normalized up front so traversals never mutate it), so
// Answer is safe from any number of goroutines — the same contract as the
// raw path (core/batch.go).

import (
	"encoding/binary"
	"fmt"
	"sort"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/relation"
)

// --- sorted key files (point/range selection, list membership) ---------------

// sortedKeysAnswerer is the decoded sorted key file: binary search probes
// compare int64s directly instead of re-decoding 8-byte big-endian records
// per comparison. rangeQueries selects the range-selection query codec.
type sortedKeysAnswerer struct {
	keys         []int64
	rangeQueries bool
}

// decodeSortedKeys unpacks an n×8-byte sorted key file. Like the raw
// searchSortedKeys path, trailing bytes beyond the last full record are
// ignored rather than rejected.
func decodeSortedKeys(pd []byte) []int64 {
	n := len(pd) / 8
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = sortedKeyAt(pd, i)
	}
	return keys
}

// searchInt64s locates the first index with keys[i] >= target.
func searchInt64s(keys []int64, target int64) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] >= target })
}

// Answer implements core.Answerer.
func (a *sortedKeysAnswerer) Answer(q []byte) (bool, error) {
	if a.rangeQueries {
		lo, hi, err := DecodeRangeQuery(q)
		if err != nil {
			return false, err
		}
		if hi < lo {
			return false, nil
		}
		idx := searchInt64s(a.keys, lo)
		return idx < len(a.keys) && a.keys[idx] <= hi, nil
	}
	c, err := DecodePointQuery(q)
	if err != nil {
		return false, err
	}
	idx := searchInt64s(a.keys, c)
	return idx < len(a.keys) && a.keys[idx] == c, nil
}

// prepareSortedKeys builds the point-query answerer over a sorted key file.
func prepareSortedKeys(pd []byte) (core.Answerer, error) {
	return &sortedKeysAnswerer{keys: decodeSortedKeys(pd)}, nil
}

// prepareSortedKeysRange is prepareSortedKeys for the range-selection codec.
func prepareSortedKeysRange(pd []byte) (core.Answerer, error) {
	return &sortedKeysAnswerer{keys: decodeSortedKeys(pd), rangeQueries: true}, nil
}

// --- local reach: the typed seam under sharded reachability ---------------------

// LocalReach is the typed, allocation-free face of a prepared reachability
// answerer (closure, labels, BFS): the same verdicts as Answer, without a
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
	// ReachFrom sets bit v of row for every v that u reaches.
	ReachFrom(u int, row []uint64)
	// ReachTo sets bit u of col for every u that reaches v.
	ReachTo(v int, col []uint64)
}

// --- reachability closure matrix ---------------------------------------------

// closureAnswerer is the validated closure over the condensation, decoded
// once; each probe is a bounds check, two class loads and a bit test. Reach,
// ReachFrom and ReachTo are graph.CondensedClosure's own.
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

// prepareClosure validates the payload once — the framing with the raw path's
// errors, then every class id a probe or a bulk read will index by — and
// decodes the closure.
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

// bfsAnswerer holds the graph decoded once and frozen into a two-way CSR
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

// Nodes implements LocalReach.
func (a *bfsAnswerer) Nodes() int { return a.g.N() }

// Reach implements LocalReach: one bidirectional search.
func (a *bfsAnswerer) Reach(u, v int) bool { return a.g.Reachable(u, v) }

// ReachFrom implements LocalReach: one traversal of the out-arcs marks the
// whole row.
func (a *bfsAnswerer) ReachFrom(u int, row []uint64) { a.g.ReachFrom(u, row) }

// ReachTo implements LocalReach: one traversal of the in-arcs.
func (a *bfsAnswerer) ReachTo(v int, col []uint64) { a.g.ReachTo(v, col) }

// prepareBFS decodes the graph once — the whole point for a baseline whose
// raw path re-decodes O(|V|+|E|) bytes per query.
func prepareBFS(pd []byte) (core.Answerer, error) {
	g, err := graph.Decode(pd)
	if err != nil {
		return nil, err
	}
	return &bfsAnswerer{g: g.Freeze()}, nil
}

// --- BDS visit order ----------------------------------------------------------

// bdsAnswerer is the decoded pos array: two slice reads per query.
type bdsAnswerer struct {
	pos []uint32
}

// Answer implements core.Answerer.
func (a *bdsAnswerer) Answer(q []byte) (bool, error) {
	u, v, err := DecodeNodePairQuery(q)
	if err != nil {
		return false, err
	}
	if u < 0 || u >= len(a.pos) || v < 0 || v >= len(a.pos) {
		return false, fmt.Errorf("schemes: node pair (%d,%d) out of range [0,%d)", u, v, len(a.pos))
	}
	return a.pos[u] < a.pos[v], nil
}

// prepareBDS unpacks the n×4-byte pos file (trailing bytes ignored, like
// the raw path).
func prepareBDS(pd []byte) (core.Answerer, error) {
	n := len(pd) / 4
	pos := make([]uint32, n)
	for i := range pos {
		pos[i] = binary.BigEndian.Uint32(pd[i*4:])
	}
	return &bdsAnswerer{pos: pos}, nil
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

// prepareCVPGates validates the gate-value header once (same errors as the
// raw path).
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
