package shard

// Sharded reachability. The vertex set is partitioned by the assignment;
// each shard preprocesses the induced subgraph on its vertices (relabelled
// 0..n_i-1), so a per-shard closure matrix is over that shard's classes
// only. Correctness across shards comes from the portal overlay built at
// preprocessing time:
//
//   - portals are the endpoints of cross-shard edges;
//   - the overlay graph has one node per portal, an edge for every cross
//     edge, and an edge p→q for every same-shard portal pair with p
//     reaching q inside its shard;
//   - the overlay's reflexive transitive closure is stored in the summary,
//     over its condensation (graph.CondensedClosure — the value and the
//     bytes the closure-matrix scheme stores).
//
// Any path u ⇝ v decomposes into within-shard segments joined at cross
// edges, so
//
//	reach(u, v)  ⇔  same-shard reach(u, v)
//	              ∨ ∃ portals p, q: reach_local(u, p) ∧ overlay(p, q) ∧ reach_local(q, v).
//
// Π does the merge. Preparing the summary precomputes, for every vertex,
// two bitsets over overlay portal indices, ⌈P/64⌉ words each:
//
//	out[u] = { q : ∃ p, reach_local(u, p) ∧ overlay(p, q) }
//	in[v]  = { q : q is a portal of v's shard ∧ reach_local(q, v) }
//
// and the second disjunct above is exactly out[u] ∩ in[v] ≠ ∅. A query is
// therefore one decode, a range check, the same-shard verdict (one typed
// probe, asked only when both endpoints share a shard), and a word-AND —
// no local probes, no allocations, whatever the cut size.
//
// Persisted vs derived. The summary bytes — vertex relabelling, cross-edge
// list, portal set, overlay closure — are what the manifest carries and
// PrepBytes counts. The rows are derived state, built from the per-shard
// prepared answerers (schemes.LocalReach, bulk row and column reads — never
// per-pair encoded probes). The summary is decoded only where it arrives as
// bytes — Build, LoadShardedFS, RetryPrepare (prepareReach) — and a PATCH
// batch starts from the committed view, which is that decoded summary, and
// encodes the next one once (maintainReach). View and summary are published
// in one committed value, so no query pairs a new summary with old rows.
//
// Memory. Vertices of one local SCC share both rows, and rows are interned
// per shard, so the heap holds 12 bytes per vertex of indices plus
// distinct·⌈P/64⌉ words, where distinct ≤ 2·(local SCC count) + 1. The
// worst case (every vertex its own SCC with its own portal set) is 2·n·P
// bits, next to the overlay closure itself (2P bytes + k² bits over its k
// classes); building them costs O(Σ_s n_s·P_s) bit operations (P_s bulk
// reads of n_s bits each way per shard), one P-bit expansion per overlay
// class, and one OR of ≤ P_s expanded rows per distinct out row.
//
// Failure isolation. A shard whose Prepare failed contributes no rows;
// queries with an endpoint in it fail with that shard's error and every
// other query is answered — the overlay closure already carries the failed
// shard's portal-to-portal connectivity from the last successful build.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
)

// reachSummary is the decoded cross-shard state for sharded reachability.
// Besides the overlay closure the answer path needs, it carries the
// cross-shard edge list and the graph's orientation — the inputs delta
// maintenance needs to rebuild the overlay when an edge insert changes
// portal-to-portal connectivity. With its rows built it is also the
// dataset's answerer (core.Answerer) and, once committed, immutable:
// maintainReach shares what a batch leaves alone and replaces what it changes.
type reachSummary struct {
	n           int      // global vertex count
	directed    bool     // orientation of the sharded graph
	local       []uint32 // local[v] = v's id inside its shard
	cross       [][2]int // cross-shard edges, global ids
	portals     []int    // ascending global ids of cross-edge endpoints
	portalShard []int    // portalShard[i] = shard owning portals[i]
	portal      map[int]int
	// byShard groups portal global ids per shard, so row building and the
	// overlay rebuild touch each shard's own portals only.
	byShard map[int][]int
	overlay *graph.CondensedClosure // reflexive closure of the portal overlay, over portal indices

	// Derived by buildRows, never persisted: the answer path's state.
	shardOf  []int32              // shardOf[v] = shard owning v
	reach    []schemes.LocalReach // per shard; nil where shardErr is set
	shardErr []error              // per shard: why it has no rows
	words    int                  // ⌈len(portals)/64⌉, the row stride
	rows     []uint64             // interned rows; row 0 is all-zero
	out, in  []uint32             // per vertex: index of its row in rows
}

// index rebuilds the derived lookup structures from portals+portalShard.
func (rs *reachSummary) index() {
	rs.portal = make(map[int]int, len(rs.portals))
	rs.byShard = make(map[int][]int)
	for i, p := range rs.portals {
		rs.portal[p] = i
		s := rs.portalShard[i]
		rs.byShard[s] = append(rs.byShard[s], p)
	}
}

// Answer implements core.Answerer — the whole sharded merge: decode once,
// range-check, same-shard verdict, then out[u] ∩ in[v] over ⌈P/64⌉ words.
func (rs *reachSummary) Answer(q []byte) (bool, error) {
	u, v, err := schemes.DecodeNodePairQuery(q)
	if err != nil {
		return false, err
	}
	if u < 0 || u >= rs.n || v < 0 || v >= rs.n {
		// The unsharded reachability schemes' bytes: a malformed query gets
		// the same refusal however the dataset is served.
		return false, fmt.Errorf("schemes: node pair (%d,%d) out of range [0,%d)", u, v, rs.n)
	}
	su, sv := rs.shardOf[u], rs.shardOf[v]
	if err := rs.shardErr[su]; err != nil {
		return false, err
	}
	if err := rs.shardErr[sv]; err != nil {
		return false, err
	}
	if su == sv && rs.reach[su].Reach(int(rs.local[u]), int(rs.local[v])) {
		return true, nil
	}
	from := rs.rows[int(rs.out[u])*rs.words:][:rs.words]
	to := rs.rows[int(rs.in[v])*rs.words:][:rs.words]
	for i, w := range from {
		if w&to[i] != 0 {
			return true, nil
		}
	}
	return false, nil
}

// localReach returns shard s's typed reach form over nodes vertices, or why
// it has none: its Prepare failed, or its answerer is not a reachability
// form of the expected size (a manifest paired with foreign shard files).
func localReach(shards []PreparedShard, s, nodes int) (schemes.LocalReach, error) {
	if shards[s].Err != nil {
		return nil, shards[s].Err
	}
	lr, ok := shards[s].Answerer.(schemes.LocalReach)
	if !ok || lr.Nodes() != nodes {
		return nil, fmt.Errorf("shard: shard %d has no local-reach form over %d vertices", s, nodes)
	}
	return lr, nil
}

// scatterBit sets bit j of row v (stride bytes wide, in dst) for every
// vertex v whose bit is set in set.
func scatterBit(set []uint64, dst []byte, stride, j int) {
	for wi, w := range set {
		for ; w != 0; w &= w - 1 {
			v := wi<<6 + bits.TrailingZeros64(w)
			dst[v*stride+j>>3] |= 1 << (j & 7)
		}
	}
}

// buildRows derives the answer-path state: shard membership, the typed
// per-shard reach forms, and the interned out/in portal rows (see the file
// comment for the formulas and the cost bound). A shard without a reach
// form is recorded in shardErr and skipped; its vertices keep the zero row,
// which Answer never reads because it checks shardErr first.
func (rs *reachSummary) buildRows(asn Assignment, shards []PreparedShard) error {
	// The summary's relabelling and portal placement are re-derived from
	// the assignment and compared, so everything below may index by them: a
	// manifest whose summary disagrees with its own assignment is refused
	// here instead of panicking in a row read.
	shardOf, local, counts := vertexShards(rs.n, asn)
	if len(shards) != len(counts) {
		return fmt.Errorf("shard: %d shard answerers for an assignment over %d shards", len(shards), len(counts))
	}
	rs.shardOf = make([]int32, rs.n)
	members := make([][]int32, len(counts)) // members[s][l] = global id of local vertex l
	for s, c := range counts {
		members[s] = make([]int32, 0, c)
	}
	for v, s := range shardOf {
		if rs.local[v] != local[v] {
			return fmt.Errorf("shard: reachability summary relabels vertex %d as %d, the assignment as %d", v, rs.local[v], local[v])
		}
		rs.shardOf[v] = int32(s)
		members[s] = append(members[s], int32(v))
	}
	for i, p := range rs.portals {
		if rs.portalShard[i] != shardOf[p] {
			return fmt.Errorf("shard: reachability summary places portal %d on shard %d, the assignment on %d", p, rs.portalShard[i], shardOf[p])
		}
	}
	P := len(rs.portals)
	rs.words = (P + 63) / 64
	rs.reach = make([]schemes.LocalReach, len(counts))
	rs.shardErr = make([]error, len(counts))
	rs.rows = make([]uint64, rs.words) // row 0: reaches no portal
	rs.out = make([]uint32, rs.n)
	rs.in = make([]uint32, rs.n)

	// Portals of one overlay class reach the same portals: a class's row over
	// portal indices is expanded once, by the first widenOut that needs it.
	overlayRows := make([][]uint64, rs.overlay.Classes())

	for s, ns := range counts {
		lr, err := localReach(shards, s, ns)
		if err != nil {
			rs.shardErr[s] = err
			continue
		}
		rs.reach[s] = lr
		ps := rs.byShard[s]
		if len(ps) == 0 {
			continue
		}
		// Local rows over this shard's own portals, one bit per portal:
		// outL[u] = portals u reaches, inL[v] = portals reaching v — filled by
		// one column and one row read per portal.
		stride := (len(ps) + 7) / 8
		outL, inL := make([]byte, ns*stride), make([]byte, ns*stride)
		set := make([]uint64, (ns+63)/64)
		for j, p := range ps {
			clear(set)
			lr.ReachTo(int(rs.local[p]), set)
			scatterBit(set, outL, stride, j)
			clear(set)
			lr.ReachFrom(int(rs.local[p]), set)
			scatterBit(set, inL, stride, j)
		}
		// Intern: vertices of one local SCC share both local rows, so each
		// distinct local row is widened to a global row exactly once — an out
		// row by OR-ing the overlay rows of its portals, an in row by setting
		// its portals' own bits.
		widenOut := func(row []uint64, j int) {
			pi := rs.portal[ps[j]]
			c := rs.overlay.Class(pi)
			if overlayRows[c] == nil {
				overlayRows[c] = make([]uint64, rs.words)
				rs.overlay.ReachFrom(pi, overlayRows[c])
			}
			for i, w := range overlayRows[c] {
				row[i] |= w
			}
		}
		widenIn := func(row []uint64, j int) {
			qi := rs.portal[ps[j]]
			row[qi>>6] |= 1 << (qi & 63)
		}
		outIdx, inIdx := map[string]uint32{}, map[string]uint32{}
		for l, v := range members[s] {
			rs.out[v] = rs.internRow(outIdx, outL[l*stride:(l+1)*stride], widenOut)
			rs.in[v] = rs.internRow(inIdx, inL[l*stride:(l+1)*stride], widenIn)
		}
	}
	return nil
}

// internRow returns the index of the global row for one local row (key),
// building it on first sight by calling widen for every local portal bit
// set in key; the empty key is row 0.
func (rs *reachSummary) internRow(seen map[string]uint32, key []byte, widen func(row []uint64, j int)) uint32 {
	if idx, ok := seen[string(key)]; ok {
		return idx
	}
	idx := uint32(0)
	var row []uint64
	for bi, b := range key {
		for ; b != 0; b &= b - 1 {
			if row == nil {
				idx = uint32(len(rs.rows) / rs.words)
				rs.rows = append(rs.rows, make([]uint64, rs.words)...)
				row = rs.rows[int(idx)*rs.words:]
			}
			widen(row, bi<<3+bits.TrailingZeros8(b))
		}
	}
	seen[string(key)] = idx
	return idx
}

// prepareReach is the Sharding.Prepare hook: decode the summary once and
// derive the rows from the per-shard prepared answerers.
func prepareReach(summary []byte, asn Assignment, shards []PreparedShard) (core.Answerer, error) {
	rs, err := decodeReachSummary(summary)
	if err != nil {
		return nil, err
	}
	if err := rs.buildRows(asn, shards); err != nil {
		return nil, err
	}
	return rs, nil
}

func encodeReachSummary(rs *reachSummary) []byte {
	b := binary.AppendUvarint(nil, uint64(rs.n))
	for _, l := range rs.local {
		b = binary.AppendUvarint(b, uint64(l))
	}
	if rs.directed {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(rs.cross)))
	for _, e := range rs.cross {
		b = binary.AppendUvarint(b, uint64(e[0]))
		b = binary.AppendUvarint(b, uint64(e[1]))
	}
	b = binary.AppendUvarint(b, uint64(len(rs.portals)))
	for _, p := range rs.portals {
		b = binary.AppendUvarint(b, uint64(p))
	}
	for _, s := range rs.portalShard {
		b = binary.AppendUvarint(b, uint64(s))
	}
	return rs.overlay.AppendWire(b)
}

func decodeReachSummary(b []byte) (*reachSummary, error) {
	off := 0
	next := func() (uint64, error) {
		v, k := binary.Uvarint(b[off:])
		if k <= 0 {
			return 0, fmt.Errorf("shard: corrupt reachability summary at offset %d", off)
		}
		off += k
		return v, nil
	}
	n64, err := next()
	if err != nil {
		return nil, err
	}
	if n64 > graph.MaxDecodeVertices {
		return nil, fmt.Errorf("shard: reachability summary claims %d vertices", n64)
	}
	rs := &reachSummary{n: int(n64), local: make([]uint32, n64)}
	for v := range rs.local {
		l, err := next()
		if err != nil {
			return nil, err
		}
		rs.local[v] = uint32(l)
	}
	if off >= len(b) {
		return nil, fmt.Errorf("shard: reachability summary truncated before orientation flag")
	}
	rs.directed = b[off] == 1
	off++
	c64, err := next()
	if err != nil {
		return nil, err
	}
	// Each cross edge takes at least two bytes; reject hostile counts
	// before allocating.
	if c64 > uint64(len(b)-off)/2 {
		return nil, fmt.Errorf("shard: reachability summary claims %d cross edges in %d bytes", c64, len(b)-off)
	}
	rs.cross = make([][2]int, c64)
	for i := range rs.cross {
		u, err := next()
		if err != nil {
			return nil, err
		}
		v, err := next()
		if err != nil {
			return nil, err
		}
		if u >= n64 || v >= n64 {
			return nil, fmt.Errorf("shard: cross edge (%d,%d) out of range [0,%d)", u, v, n64)
		}
		rs.cross[i] = [2]int{int(u), int(v)}
	}
	p64, err := next()
	if err != nil {
		return nil, err
	}
	if p64 > n64 {
		return nil, fmt.Errorf("shard: reachability summary claims %d portals over %d vertices", p64, n64)
	}
	rs.portals = make([]int, p64)
	for i := range rs.portals {
		p, err := next()
		if err != nil {
			return nil, err
		}
		if p >= n64 {
			return nil, fmt.Errorf("shard: portal %d out of range [0,%d)", p, n64)
		}
		rs.portals[i] = int(p)
	}
	rs.portalShard = make([]int, p64)
	for i := range rs.portalShard {
		s, err := next()
		if err != nil {
			return nil, err
		}
		// Shard ids are small in practice; the bound only has to stop a
		// hostile manifest from claiming astronomical values.
		if s > n64 {
			return nil, fmt.Errorf("shard: portal shard id %d out of range", s)
		}
		rs.portalShard[i] = int(s)
	}
	rs.index()
	if rs.overlay, err = graph.DecodeCondensedClosure(b[off:], len(rs.portals)); err != nil {
		return nil, fmt.Errorf("shard: overlay closure: %w", err)
	}
	return rs, nil
}

// vertexShards computes shard membership and local relabelling for every
// vertex: local ids are ranks within the shard in ascending global order.
func vertexShards(n int, asn Assignment) (shardOf []int, local []uint32, counts []int) {
	shardOf = make([]int, n)
	local = make([]uint32, n)
	counts = make([]int, asn.Shards())
	for v := 0; v < n; v++ {
		s := asn.Shard(int64(v))
		shardOf[v] = s
		local[v] = uint32(counts[s])
		counts[s]++
	}
	return shardOf, local, counts
}

// inducedSubgraphs builds each shard's induced subgraph under the local
// relabelling; edges crossing shards are dropped here and recovered by the
// portal overlay.
func inducedSubgraphs(g *graph.Graph, shardOf []int, local []uint32, counts []int) ([]*graph.Graph, error) {
	subs := make([]*graph.Graph, len(counts))
	for i, c := range counts {
		subs[i] = graph.New(c, g.Directed())
	}
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		if shardOf[u] != shardOf[v] {
			continue
		}
		if err := subs[shardOf[u]].AddEdge(int(local[u]), int(local[v])); err != nil {
			return nil, err
		}
	}
	for _, s := range subs {
		s.Normalize()
	}
	return subs, nil
}

// splitReach is the Split hook: one decode, one relabelling, one set of
// induced subgraphs feeding both the per-shard parts and the portal-overlay
// summary. Every vertex is its own partition key.
func splitReach(data []byte, p Partitioner, n int) (Assignment, [][]byte, []byte, error) {
	g, err := graph.Decode(data)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("keys: %w", err)
	}
	keys := make([]int64, g.N())
	for v := range keys {
		keys[v] = int64(v)
	}
	asn, err := p.Plan(keys, n)
	if err != nil {
		return nil, nil, nil, err
	}
	shardOf, local, counts := vertexShards(g.N(), asn)
	subs, err := inducedSubgraphs(g, shardOf, local, counts)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("split: %w", err)
	}
	parts := make([][]byte, len(subs))
	for i, s := range subs {
		parts[i] = s.Encode()
	}
	summary, err := buildReachSummary(g, shardOf, local, counts, subs)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("split: %w", err)
	}
	return asn, parts, summary, nil
}

// buildReachSummary computes the portal overlay closure from the decoded
// graph and its per-shard induced subgraphs.
func buildReachSummary(g *graph.Graph, shardOf []int, local []uint32, counts []int, subs []*graph.Graph) ([]byte, error) {
	n := g.N()

	// Portals: endpoints of cross-shard edges, ascending. The cross-edge
	// list itself is retained in the summary — delta maintenance rebuilds
	// the overlay from it when an insert changes portal connectivity.
	isPortal := make([]bool, n)
	var cross [][2]int
	for _, e := range g.Edges() {
		if shardOf[e[0]] != shardOf[e[1]] {
			isPortal[e[0]] = true
			isPortal[e[1]] = true
			cross = append(cross, e)
		}
	}
	var portals, portalShard []int
	for v := 0; v < n; v++ {
		if isPortal[v] {
			portals = append(portals, v)
			portalShard = append(portalShard, shardOf[v])
		}
	}
	rs := &reachSummary{
		n: n, directed: g.Directed(), local: local, cross: cross,
		portals: portals, portalShard: portalShard,
	}
	rs.index()
	// Within-shard portal reach is read off each shard's frozen subgraph: one
	// search per portal into one reused row, so building costs O(n_s/64)
	// memory whatever scheme the shards are then preprocessed under.
	err := rs.rebuildClosure(counts, func(s int) (rowReader, error) { return subs[s].Freeze(), nil })
	if err != nil {
		return nil, err
	}
	return encodeReachSummary(rs), nil
}

// maxPortals caps the portal overlay: every portal row is P bits wide
// whatever the overlay condenses to (and its closure up to P² bits when it
// does not), and P grows with every cross-shard edge a registration or a
// PATCH brings. It is graph.MaxClosureVertices — a variable only so a test
// can reach the cap without a 512 MB overlay.
var maxPortals = graph.MaxClosureVertices

// checkPortals refuses an overlay of more than maxPortals portals before its
// closure (or the zero padding that stands in for it inside a batch) is
// allocated.
func checkPortals(portals int) error {
	if portals > maxPortals {
		return fmt.Errorf("shard: the portal overlay would hold %d cross-edge endpoints, over the %d-vertex closure limit (its closure takes P² bits); use fewer shards or the range partitioner", portals, maxPortals)
	}
	return nil
}

// recomputePortals rederives the portal set (ascending global ids), the
// per-portal shard assignment, and the lookup indexes from the cross-edge
// list — the canonical source after an insert may have created new portals
// — into fresh slices: the old ones may belong to the committed view.
func (rs *reachSummary) recomputePortals(asn Assignment) {
	isPortal := make(map[int]bool)
	for _, e := range rs.cross {
		isPortal[e[0]] = true
		isPortal[e[1]] = true
	}
	rs.portals = nil
	for v := 0; v < rs.n; v++ {
		if isPortal[v] {
			rs.portals = append(rs.portals, v)
		}
	}
	rs.portalShard = make([]int, len(rs.portals))
	for i, p := range rs.portals {
		rs.portalShard[i] = asn.Shard(int64(p))
	}
	rs.index()
}

// rowReader is what the overlay build needs of a shard: bit v of row set for
// every local v that u reaches. A frozen subgraph (*graph.CSR, at Build) and
// a prepared answerer (schemes.LocalReach, at PATCH) both are one.
type rowReader interface {
	ReachFrom(u int, row []uint64)
}

// rebuildClosure recomputes the overlay's reflexive transitive closure (stored
// over its condensation, the value the closure-matrix scheme stores) from
// the cross-edge list plus within-shard portal reachability: one bulk row
// read per portal, then one closure computation on the |portals|-node
// overlay — far below re-preprocessing the dataset. local hands over shard
// s's reader over counts[s] vertices; only a shard that must be read (two or
// more portals) is asked, and its error fails the rebuild.
func (rs *reachSummary) rebuildClosure(counts []int, local func(s int) (rowReader, error)) error {
	if err := checkPortals(len(rs.portals)); err != nil {
		return err
	}
	overlay := graph.New(len(rs.portals), true)
	for _, e := range rs.cross {
		overlay.MustAddEdge(rs.portal[e[0]], rs.portal[e[1]])
		if !rs.directed {
			overlay.MustAddEdge(rs.portal[e[1]], rs.portal[e[0]])
		}
	}
	for s, ps := range rs.byShard {
		if len(ps) < 2 {
			continue
		}
		lr, err := local(s)
		if err != nil {
			return err
		}
		idx := make([]int, len(ps)) // overlay index of ps[j]
		for j, p := range ps {
			idx[j] = rs.portal[p]
		}
		set := make([]uint64, (counts[s]+63)/64)
		for j, p := range ps {
			clear(set)
			lr.ReachFrom(int(rs.local[p]), set)
			for k, q := range ps {
				if lq := rs.local[q]; j != k && set[lq>>6]>>(lq&63)&1 != 0 {
					overlay.MustAddEdge(idx[j], idx[k])
				}
			}
		}
	}
	var err error
	rs.overlay, err = graph.NewCondensedClosure(overlay)
	return err
}

// findCross returns the index of the first copy of (u,v) (either orientation
// for undirected graphs) in the cross-edge list, or -1.
func (rs *reachSummary) findCross(u, v int) int {
	for i, e := range rs.cross {
		if (e[0] == u && e[1] == v) || (!rs.directed && e[0] == v && e[1] == u) {
			return i
		}
	}
	return -1
}

// decodeEdgeDelta parses and validates one edge-insert delta against the
// summary's vertex universe.
func decodeEdgeDelta(delta []byte, rs *reachSummary) (u, v int, err error) {
	u, v, err = schemes.DecodeNodePairQuery(delta)
	if err != nil {
		return 0, 0, err
	}
	if u < 0 || u >= rs.n || v < 0 || v >= rs.n || u == v {
		return 0, 0, fmt.Errorf("shard: bad edge delta (%d,%d) over %d vertices", u, v, rs.n)
	}
	return u, v, nil
}

// splitReachDelta routes an edge delta: a same-shard edge becomes a local
// relabelled delta of the same kind on its owning shard; a cross-shard
// edge touches no shard — induced subgraphs exclude cross edges — and
// lands entirely on the summary. Inserts on undirected graphs keep the
// historical two-orientation encoding (the second is an idempotent no-op
// now that the scheme's AddEdge stores both arcs); deletes send exactly
// one local delta, because the scheme's RemoveEdge drops both arcs and a
// second delete would error as edge-not-present.
func splitReachDelta(delta []byte, asn Assignment, view core.Answerer) (map[int][][]byte, error) {
	rs := view.(*reachSummary)
	kind, payload, err := core.DeltaParts(delta)
	if err != nil {
		return nil, err
	}
	u, v, err := decodeEdgeDelta(payload, rs)
	if err != nil {
		return nil, err
	}
	su, sv := asn.Shard(int64(u)), asn.Shard(int64(v))
	if su != sv {
		return nil, nil
	}
	local := schemes.NodePairQuery(int(rs.local[u]), int(rs.local[v]))
	lds := [][]byte{core.TagDelta(kind, local)}
	if !rs.directed && kind != core.DeltaDelete {
		lds = append(lds, core.TagDelta(kind, schemes.NodePairQuery(int(rs.local[v]), int(rs.local[u]))))
	}
	return map[int][][]byte{su: lds}, nil
}

// applyCross applies one edge delta to the overlay's structure: a cross-shard
// insert extends the cross-edge list (possibly promoting its endpoints to
// portals); a cross-shard delete drops the edge from the list — erroring when
// it was never there, matching the unsharded scheme's strict edge-delete
// contract — and demotes portals that lost their last cross edge. A
// same-shard edge changes no structure (SplitDelta already validated and
// routed it). The cross-edge list and the portal set are replaced, never
// written in place.
func (rs *reachSummary) applyCross(delta []byte, asn Assignment) error {
	kind, payload, err := core.DeltaParts(delta)
	if err != nil {
		return err
	}
	u, v, err := decodeEdgeDelta(payload, rs)
	if err != nil {
		return err
	}
	if asn.Shard(int64(u)) == asn.Shard(int64(v)) {
		return nil
	}
	i := rs.findCross(u, v)
	switch {
	case kind == core.DeltaDelete && i < 0:
		return fmt.Errorf("shard: cross edge (%d,%d) not present", u, v)
	case kind == core.DeltaDelete:
		rs.cross = slices.Delete(slices.Clone(rs.cross), i, i+1)
		rs.recomputePortals(asn)
	case i < 0: // insert and upsert: idempotent when the edge is present
		rs.cross = append(slices.Clone(rs.cross), [2]int{u, v})
		rs.recomputePortals(asn)
		// Only an insert grows the portal set, whose closure takes P² bits.
		return checkPortals(len(rs.portals))
	}
	return nil
}

// maintainReach is the Maintain hook. The next summary starts as the
// committed view's structure; the batch's cross edges are applied to it in
// delta order; then the overlay closure is rebuilt from the batch-final
// cross-edge list and the maintained per-shard answerers — once per batch,
// and even when no cross edge moved, since a same-shard insert can connect
// two portals locally — the rows are built on it, and it is encoded. Nothing
// inside the batch reads the closure before that: splitReachDelta only needs
// the vertex universe and local relabelling, and queries keep answering
// through the committed view until the batch commits.
func maintainReach(view core.Answerer, asn Assignment, deltas [][]byte, shards []PreparedShard) ([]byte, core.Answerer, error) {
	cur := view.(*reachSummary)
	rs := &reachSummary{
		n: cur.n, directed: cur.directed, local: cur.local, cross: cur.cross,
		portals: cur.portals, portalShard: cur.portalShard, portal: cur.portal, byShard: cur.byShard,
	}
	for di, delta := range deltas {
		if err := rs.applyCross(delta, asn); err != nil {
			return nil, nil, fmt.Errorf("delta %d: summary: %w", di, err)
		}
	}
	_, _, counts := vertexShards(rs.n, asn)
	err := rs.rebuildClosure(counts, func(s int) (rowReader, error) { return localReach(shards, s, counts[s]) })
	if err != nil {
		return nil, nil, fmt.Errorf("finish summary: %w", err)
	}
	if err := rs.buildRows(asn, shards); err != nil {
		return nil, nil, fmt.Errorf("finish summary: %w", err)
	}
	return encodeReachSummary(rs), rs, nil
}

// reachabilitySharding wires the graph split, the portal overlay, and the
// prepared view that answers every query (prepareReach). It serves the
// closure-matrix scheme, the labels scheme and the BFS-per-query baseline
// alike: the view only needs schemes.LocalReach, which all three prepared
// answerers implement.
//
// withDeltas enables sharded edge-delta maintenance. It is on for the
// closure-matrix and labels schemes, whose per-shard maintenance and
// overlay rebuild both stay far below a re-preprocess. The BFS baseline
// keeps it off: its "preprocessed" shard artifact is the raw subgraph, so
// every overlay rebuild read is a full O(|V|+|E|) traversal and
// maintenance would cost more than re-registering — the
// bounded-incrementality contract the delta path exists for does not
// hold, and PATCH refuses with a clean conflict instead.
func reachabilitySharding(withDeltas bool) *Sharding {
	sh := &Sharding{Split: splitReach, Prepare: prepareReach}
	if withDeltas {
		sh.SplitDelta = splitReachDelta
		sh.Maintain = maintainReach
	}
	return sh
}
