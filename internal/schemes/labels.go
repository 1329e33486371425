package schemes

// Succinct Π for reachability: the "reachability/labels" scheme answers
// with a 2-hop reachability labeling instead of the closure scheme's bit
// matrix over the condensation — k² bits, refused above 65 536 classes, where
// the labels have no cap — and builds that labeling on the query-preserving
// compression of the graph (internal/compress, the paper's §4(5) strategy)
// rather than on the graph itself:
//
//  1. Compress: SCC condensation + iterated false-twin merging yields a
//     DAG Dc with Map sending each original vertex to its representative.
//  2. Label: pruned landmark labeling (PLL, Akiba–Iwata–Yoshida style,
//     adapted from distances to reachability) over Dc assigns every Dc
//     vertex two sorted hub sets Lout/Lin such that x ⇝ y in Dc iff
//     Lout[x] ∩ Lin[y] ≠ ∅. Hubs are processed in degree order, and the
//     pruned BFS skips every vertex an earlier hub already covers, which
//     is what keeps the label sets small on hub-and-spoke shapes.
//  3. Translate: reach(u, v) on the original graph is u = v, or same SCC
//     (mutually reachable), or — distinct representatives — the label
//     intersection on Dc. Two distinct SCCs merged as false twins are
//     non-adjacent by construction, so same-representative/different-SCC
//     answers false. This is exactly compress.Reach's translation, pinned
//     differentially against it and against the closure-matrix oracle.
//
// Undirected graphs need none of this machinery: reachability is connected
// components, so the labeling degenerates to one component id per vertex —
// the "pick the labeling per graph shape" half of the scheme.
//
// The payload carries the canonical encoding of the original graph as an
// appendix (like the closure's ClosureGraphFlag section): incremental
// maintenance edits the appendix and relabels from it wholesale
// (relabel-on-commit), so maintained and rebuilt Π stay byte-identical.
//
// The closure scheme ("reachability/closure-matrix") is the differential
// oracle: identical verdicts AND identical error strings, pinned by the
// succinct differential suites.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"pitract/internal/compress"
	"pitract/internal/core"
	"pitract/internal/graph"
)

// Label payload kind bytes: a directed payload carries the compression map
// plus 2-hop labels over Dc; an undirected payload carries component ids.
const (
	labelsKindDirected   = 0
	labelsKindUndirected = 1
)

// reachLabels is the decoded labels payload — the typed form both the raw
// Answer (per call) and the prepared answerer (once) decode into.
type reachLabels struct {
	n          int  // original vertex count
	undirected bool // payload kind

	// Undirected: connected-component id per vertex.
	comp []int32

	// Directed: the compression map and the 2-hop labeling over Dc.
	scc       []int32   // stage-1 SCC id per original vertex
	rep       []int32   // Dc representative per SCC id (compress.Map factored through SCC ids)
	nDc       int       // compressed DAG vertex count
	lout, lin [][]int32 // per Dc vertex: ascending hub ranks

	// graphEnc is the canonical encoding of the original graph (the
	// relabel-on-commit maintenance input). It aliases the payload.
	graphEnc []byte
}

// reach answers the original-graph query on decoded labels. Bounds are the
// caller's job (both answer paths check them first, with the closure
// scheme's exact error string).
func (rl *reachLabels) reach(u, v int) bool {
	if u == v {
		return true
	}
	if rl.undirected {
		return rl.comp[u] == rl.comp[v]
	}
	su, sv := rl.scc[u], rl.scc[v]
	if su == sv {
		return true // same SCC: mutually reachable
	}
	mu, mv := rl.rep[su], rl.rep[sv]
	if mu == mv {
		return false // merged false twins: non-adjacent by construction
	}
	return intersectSorted(rl.lout[mu], rl.lin[mv])
}

// intersectSorted reports whether two ascending hub lists share an element
// — the 2-hop probe, O(|a|+|b|).
func intersectSorted(a, b []int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// buildReachLabels preprocesses a decoded graph into labels: component ids
// for undirected graphs, compression + PLL for directed ones.
func buildReachLabels(g *graph.Graph) (*reachLabels, error) {
	rl := &reachLabels{n: g.N(), graphEnc: g.Encode()}
	if !g.Directed() {
		rl.undirected = true
		rl.comp = undirectedComponents(g)
		return rl, nil
	}
	c, err := compress.Compress(g)
	if err != nil {
		return nil, err
	}
	sccIDs := c.SCCIDs()
	rl.scc = make([]int32, rl.n)
	nSCC := 0
	for v, s := range sccIDs {
		rl.scc[v] = int32(s)
		if s+1 > nSCC {
			nSCC = s + 1
		}
	}
	rl.nDc = c.Dc.N()
	rl.rep = make([]int32, nSCC)
	for v := range sccIDs {
		rl.rep[sccIDs[v]] = int32(c.Map[v])
	}
	rl.lout, rl.lin = buildPLL(c.Dc)
	return rl, nil
}

// undirectedComponents labels each vertex with its connected component, ids
// assigned in first-seen vertex order (deterministic).
func undirectedComponents(g *graph.Graph) []int32 {
	comp := make([]int32, g.N())
	for i := range comp {
		comp[i] = -1
	}
	next := int32(0)
	var queue []int32
	for s := 0; s < g.N(); s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(int(u)) {
				if comp[w] < 0 {
					comp[w] = next
					queue = append(queue, w)
				}
			}
		}
		next++
	}
	return comp
}

// buildPLL computes a pruned landmark labeling of a DAG: hub sets such
// that x ⇝ y iff Lout[x] ∩ Lin[y] ≠ ∅ (reflexively — every vertex is its
// own hub unless an earlier hub already covers it). Hubs are stored as
// ranks in the processing order (degree descending, ties by id), so label
// lists are appended in ascending order and intersect by sorted merge.
func buildPLL(dag *graph.Graph) (lout, lin [][]int32) {
	n := dag.N()
	lout = make([][]int32, n)
	lin = make([][]int32, n)
	if n == 0 {
		return lout, lin
	}
	// Reverse adjacency for the backward sweeps, sorted for determinism.
	radj := make([][]int32, n)
	for u := 0; u < n; u++ {
		for _, v := range dag.Neighbors(u) {
			radj[v] = append(radj[v], int32(u))
		}
	}
	for v := range radj {
		l := radj[v]
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	fadj := make([][]int32, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		fadj[v] = dag.Neighbors(v)
		deg[v] = len(fadj[v]) + len(radj[v])
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if deg[order[i]] != deg[order[j]] {
			return deg[order[i]] > deg[order[j]]
		}
		return order[i] < order[j]
	})

	// sweep runs one pruned BFS from root over adj, appending rank to
	// to[u] for every visited u not already covered by an earlier hub.
	// The cover check intersects from[root] with to[u]: for the forward
	// sweep that is Lout[root] ∩ Lin[u] (∃ earlier hub h: root ⇝ h ⇝ u);
	// the backward sweep passes from = lin, to = lout, giving the
	// symmetric Lout[u] ∩ Lin[root]. Pruning a covered vertex prunes its
	// whole subtree — the PLL invariant guarantees the earlier hub's own
	// sweep labeled everything beyond it.
	seen := make([]bool, n)
	queue := make([]int32, 0, n)
	visited := make([]int32, 0, n)
	sweep := func(adj, from, to [][]int32, root, rank int) {
		queue = append(queue[:0], int32(root))
		visited = append(visited[:0], int32(root))
		seen[root] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if intersectSorted(from[root], to[u]) {
				continue
			}
			to[u] = append(to[u], int32(rank))
			for _, w := range adj[u] {
				if !seen[w] {
					seen[w] = true
					visited = append(visited, w)
					queue = append(queue, w)
				}
			}
		}
		for _, u := range visited {
			seen[u] = false
		}
	}
	for rank, root := range order {
		sweep(fadj, lout, lin, root, rank)
		sweep(radj, lin, lout, root, rank)
	}
	return lout, lin
}

// encodeLabels lays the labels payload out as a single forward-decodable
// varint stream:
//
//	kind ‖ uvarint n ‖ body ‖ uvarint len(graphEnc) ‖ graphEnc
//
// with the directed body
//
//	n × uvarint scc[v] ‖ uvarint S ‖ uvarint nDc ‖ S × uvarint rep[s]
//	‖ nDc × (labelList(Lout[x]) ‖ labelList(Lin[x]))
//
// where labelList is uvarint count ‖ first hub ‖ ascending deltas, and the
// undirected body is n × uvarint comp[v].
func encodeLabels(rl *reachLabels) []byte {
	b := []byte{labelsKindDirected}
	if rl.undirected {
		b[0] = labelsKindUndirected
	}
	b = binary.AppendUvarint(b, uint64(rl.n))
	if rl.undirected {
		for _, c := range rl.comp {
			b = binary.AppendUvarint(b, uint64(c))
		}
	} else {
		for _, s := range rl.scc {
			b = binary.AppendUvarint(b, uint64(s))
		}
		b = binary.AppendUvarint(b, uint64(len(rl.rep)))
		b = binary.AppendUvarint(b, uint64(rl.nDc))
		for _, r := range rl.rep {
			b = binary.AppendUvarint(b, uint64(r))
		}
		for x := 0; x < rl.nDc; x++ {
			b = appendLabelList(b, rl.lout[x])
			b = appendLabelList(b, rl.lin[x])
		}
	}
	b = binary.AppendUvarint(b, uint64(len(rl.graphEnc)))
	return append(b, rl.graphEnc...)
}

// appendLabelList delta-encodes one ascending hub list.
func appendLabelList(b []byte, l []int32) []byte {
	b = binary.AppendUvarint(b, uint64(len(l)))
	prev := int32(0)
	for i, h := range l {
		if i == 0 {
			b = binary.AppendUvarint(b, uint64(h))
		} else {
			b = binary.AppendUvarint(b, uint64(h-prev))
		}
		prev = h
	}
	return b
}

// errCorruptLabels is the shared shape of every labels-payload decode
// failure — one message both answer paths report identically.
func errCorruptLabels(what string) error {
	return fmt.Errorf("schemes: corrupt reachability labels (%s)", what)
}

// decodeLabels parses a labels payload. Hostile input fails closed: every
// count is bounded by the remaining buffer before allocation, every id is
// range-checked, and trailing bytes are rejected — never a panic, never an
// unbounded allocation (see FuzzDecodeLabels).
func decodeLabels(pd []byte) (*reachLabels, error) {
	if len(pd) < 2 {
		return nil, errCorruptLabels("truncated header")
	}
	kind := pd[0]
	if kind != labelsKindDirected && kind != labelsKindUndirected {
		return nil, errCorruptLabels(fmt.Sprintf("unknown kind %d", kind))
	}
	off := 1
	next := func(what string) (uint64, error) {
		v, k := binary.Uvarint(pd[off:])
		if k <= 0 {
			return 0, errCorruptLabels(what)
		}
		off += k
		return v, nil
	}
	n64, err := next("vertex count")
	if err != nil {
		return nil, err
	}
	if n64 > graph.MaxDecodeVertices {
		return nil, errCorruptLabels(fmt.Sprintf("%d vertices exceeds decode limit %d", n64, graph.MaxDecodeVertices))
	}
	// Every per-vertex entry costs at least one byte; a count beyond the
	// remaining buffer is hostile — reject before allocating.
	if n64 > uint64(len(pd)-off) {
		return nil, errCorruptLabels(fmt.Sprintf("%d vertices exceeds remaining %d bytes", n64, len(pd)-off))
	}
	rl := &reachLabels{n: int(n64), undirected: kind == labelsKindUndirected}
	if rl.undirected {
		rl.comp = make([]int32, rl.n)
		for v := range rl.comp {
			c, err := next("component id")
			if err != nil {
				return nil, err
			}
			if c >= n64 {
				return nil, errCorruptLabels(fmt.Sprintf("component id %d out of range", c))
			}
			rl.comp[v] = int32(c)
		}
	} else {
		rl.scc = make([]int32, rl.n)
		for v := range rl.scc {
			s, err := next("scc id")
			if err != nil {
				return nil, err
			}
			if s >= n64 {
				return nil, errCorruptLabels(fmt.Sprintf("scc id %d out of range", s))
			}
			rl.scc[v] = int32(s)
		}
		s64, err := next("scc count")
		if err != nil {
			return nil, err
		}
		if s64 > n64 {
			return nil, errCorruptLabels(fmt.Sprintf("%d sccs over %d vertices", s64, n64))
		}
		for _, s := range rl.scc {
			if uint64(s) >= s64 {
				return nil, errCorruptLabels(fmt.Sprintf("scc id %d out of range [0,%d)", s, s64))
			}
		}
		dc64, err := next("compressed vertex count")
		if err != nil {
			return nil, err
		}
		if dc64 > s64 {
			return nil, errCorruptLabels(fmt.Sprintf("%d compressed vertices over %d sccs", dc64, s64))
		}
		rl.nDc = int(dc64)
		if s64 > uint64(len(pd)-off) {
			return nil, errCorruptLabels(fmt.Sprintf("%d representatives exceed remaining %d bytes", s64, len(pd)-off))
		}
		rl.rep = make([]int32, s64)
		for s := range rl.rep {
			r, err := next("representative")
			if err != nil {
				return nil, err
			}
			if r >= dc64 {
				return nil, errCorruptLabels(fmt.Sprintf("representative %d out of range [0,%d)", r, dc64))
			}
			rl.rep[s] = int32(r)
		}
		rl.lout = make([][]int32, rl.nDc)
		rl.lin = make([][]int32, rl.nDc)
		for x := 0; x < rl.nDc; x++ {
			if rl.lout[x], err = decodeLabelList(pd, &off, next, dc64); err != nil {
				return nil, err
			}
			if rl.lin[x], err = decodeLabelList(pd, &off, next, dc64); err != nil {
				return nil, err
			}
		}
	}
	enc64, err := next("graph appendix length")
	if err != nil {
		return nil, err
	}
	if enc64 != uint64(len(pd)-off) {
		return nil, errCorruptLabels(fmt.Sprintf("graph appendix claims %d bytes, %d remain", enc64, len(pd)-off))
	}
	rl.graphEnc = pd[off:]
	return rl, nil
}

// decodeLabelList parses one delta-encoded hub list, enforcing strict
// ascent and the hub-id bound.
func decodeLabelList(pd []byte, off *int, next func(string) (uint64, error), nDc uint64) ([]int32, error) {
	c64, err := next("label count")
	if err != nil {
		return nil, err
	}
	if c64 > uint64(len(pd)-*off) {
		return nil, errCorruptLabels(fmt.Sprintf("label count %d exceeds remaining %d bytes", c64, len(pd)-*off))
	}
	if c64 > nDc {
		return nil, errCorruptLabels(fmt.Sprintf("label count %d over %d compressed vertices", c64, nDc))
	}
	l := make([]int32, c64)
	prev := uint64(0)
	for i := range l {
		d, err := next("label hub")
		if err != nil {
			return nil, err
		}
		h := d
		if i > 0 {
			h = prev + d
			if d == 0 {
				return nil, errCorruptLabels("label hubs not strictly ascending")
			}
		}
		if h >= nDc {
			return nil, errCorruptLabels(fmt.Sprintf("label hub %d out of range [0,%d)", h, nDc))
		}
		l[i] = int32(h)
		prev = h
	}
	return l, nil
}

// preprocessLabels is Π for the labels scheme: decode the graph, compress,
// label, encode.
func preprocessLabels(d []byte) ([]byte, error) {
	g, err := graph.Decode(d)
	if err != nil {
		return nil, err
	}
	rl, err := buildReachLabels(g)
	if err != nil {
		return nil, err
	}
	return encodeLabels(rl), nil
}

// labelsAnswerer is the prepared form: the payload decoded once, each
// probe a bounds check plus a label intersection.
type labelsAnswerer struct {
	rl *reachLabels
}

// Answer implements core.Answerer.
func (a *labelsAnswerer) Answer(q []byte) (bool, error) {
	u, v, err := DecodeNodePairQuery(q)
	if err != nil {
		return false, err
	}
	if u < 0 || u >= a.rl.n || v < 0 || v >= a.rl.n {
		return false, fmt.Errorf("schemes: node pair (%d,%d) out of range [0,%d)", u, v, a.rl.n)
	}
	return a.rl.reach(u, v), nil
}

// Nodes implements LocalReach.
func (a *labelsAnswerer) Nodes() int { return a.rl.n }

// Reach implements LocalReach: one label intersection.
func (a *labelsAnswerer) Reach(u, v int) bool { return a.rl.reach(u, v) }

// ReachFrom implements LocalReach: n label probes, none of them encoded.
func (a *labelsAnswerer) ReachFrom(u int, row []uint64) {
	for v := 0; v < a.rl.n; v++ {
		if a.rl.reach(u, v) {
			row[v>>6] |= 1 << (v & 63)
		}
	}
}

// ReachTo implements LocalReach, like ReachFrom with the roles swapped.
func (a *labelsAnswerer) ReachTo(v int, col []uint64) {
	for u := 0; u < a.rl.n; u++ {
		if a.rl.reach(u, v) {
			col[u>>6] |= 1 << (u & 63)
		}
	}
}

// prepareLabels decodes the payload once (same errors as the raw path).
func prepareLabels(pd []byte) (core.Answerer, error) {
	rl, err := decodeLabels(pd)
	if err != nil {
		return nil, err
	}
	return &labelsAnswerer{rl: rl}, nil
}

// ReachabilityLabelsScheme is the uncapped alternative to the closure
// matrix: 2-hop reachability labels over the query-preserving compression,
// answering by label intersection in O(|label|) — with the matrix scheme as
// the differential oracle.
func ReachabilityLabelsScheme() *core.Scheme {
	return &core.Scheme{
		SchemeName: "reachability/labels",
		Preprocess: preprocessLabels,
		Answer: func(pd, q []byte) (bool, error) {
			u, v, err := DecodeNodePairQuery(q)
			if err != nil {
				return false, err
			}
			rl, err := decodeLabels(pd)
			if err != nil {
				return false, err
			}
			if u < 0 || u >= rl.n || v < 0 || v >= rl.n {
				return false, fmt.Errorf("schemes: node pair (%d,%d) out of range [0,%d)", u, v, rl.n)
			}
			return rl.reach(u, v), nil
		},
		PrepareAnswerer: prepareLabels,
		// Degraded mode builds the closure over the condensation from the
		// graph appendix and probes it in O(1) — a cheaper, allocation-free probe
		// than the label intersection, with identical verdicts and
		// identical out-of-range error strings (both answerers validate
		// against the same n). The serving layer switches to it when the
		// dataset's health breaker degrades or the query budget runs low.
		PrepareFallback: prepareLabelsFallback,
		PreprocessNote:  "O(compress) + O(PLL(Dc)) — labels built on the compressed DAG",
		AnswerNote:      "O(|Lout| + |Lin|) label intersection",
	}
}

// prepareLabelsFallback builds the labels scheme's degraded-mode
// answerer: the original graph recovered from the appendix and closed over
// its condensation — the closure scheme's answerer, built from the graph
// rather than decoded from bytes, under the same class cap.
func prepareLabelsFallback(pd []byte) (core.Answerer, error) {
	rl, err := decodeLabels(pd)
	if err != nil {
		return nil, err
	}
	g, err := graph.Decode(rl.graphEnc)
	if err != nil {
		return nil, fmt.Errorf("schemes: labels graph appendix: %w", err)
	}
	c, err := graph.NewCondensedClosure(g)
	if err != nil {
		return nil, fmt.Errorf("schemes: labels fallback: %w", err)
	}
	return closureAnswerer{c}, nil
}

// IncrementalReachabilityLabels maintains the labels scheme by
// relabel-on-commit: an edge delta edits the graph appendix (the same
// validation and strict-delete contract as the closure scheme) and the
// labels are rebuilt wholesale from the maintained graph. There is no
// per-delta label surgery — a single edge can restructure the SCC
// condensation, the twin classes, and the hub cover all at once; what does
// hold is that the relabel runs on the compressed DAG. A payload whose
// appendix fails to decode refuses the delta cleanly (nothing applied).
// Maintained and rebuilt Π stay byte-identical (pinned differentially).
func IncrementalReachabilityLabels() *core.IncrementalScheme {
	return &core.IncrementalScheme{
		Scheme: ReachabilityLabelsScheme(),
		ApplyDelta: func(pd, delta []byte) ([]byte, error) {
			rl, err := decodeLabels(pd)
			if err != nil {
				return nil, err
			}
			kind, u, v, err := DecodeEdgeDelta(delta, rl.n)
			if err != nil {
				return nil, err
			}
			g, err := graph.Decode(rl.graphEnc)
			if err != nil {
				return nil, fmt.Errorf("schemes: labels graph appendix: %w", err)
			}
			changed, err := editGraph(g, kind, u, v)
			if err != nil {
				return nil, err
			}
			if !changed {
				return pd, nil
			}
			rebuilt, err := buildReachLabels(g)
			if err != nil {
				return nil, err
			}
			return encodeLabels(rebuilt), nil
		},
		ApplyUpdate: applyEdgeToGraph,
		DeltaNote:   "relabel on commit: O(compress + PLL(Dc)) rebuild from the graph appendix",
	}
}
