package shard

// Sharded reachability. The vertex set is partitioned by the assignment;
// each shard preprocesses the induced subgraph on its vertices (relabelled
// 0..n_i-1), so a per-shard closure matrix is over that shard's classes
// only. Correctness across shards comes from the portal overlay built at
// preprocessing time:
//
//   - portals are the endpoints of cross-shard edges;
//   - the overlay graph has one node per portal, an edge for every cross
//     edge, and, per local class — the portals of one shard that reach each
//     other inside it — an edge from its first portal to every same-shard
//     portal it reaches and one back to it from each other member: the
//     portal-to-portal reachability of an edge per reaching pair, from one
//     search per class;
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
// Persisted vs derived. The summary holds only what the assignment cannot
// derive:
//
//	uvarint n ‖ orientation byte ‖ uvarint len ‖ cross-edge arc file ‖ overlay closure
//
// the arc file being schemes.ArcFile — keys.go's Elias–Fano key file over arc
// ids u·n + v, u < v for an undirected edge — and the overlay
// graph.CondensedClosure's wire form. It is what the manifest carries and
// PrepBytes counts, and a function of the graph and the assignment, so a
// maintained summary is byte-equal to a fresh build's. Everything else is
// derived at decode (decodeReachSummary, which takes the assignment): each
// vertex's shard and local id (vertexShards), and the portals — the arc file's
// endpoints, ascending, grouped per shard (findPortals) — so nothing left in
// the bytes can disagree with the assignment. The rows are derived state too,
// built from the per-shard prepared answerers (schemes.LocalReach, bulk row
// and column reads — never per-pair encoded probes). The summary is decoded
// only where it arrives as bytes — Build and store.Load (prepareReach) —
// and a PATCH batch starts from the committed view, which is that decoded
// summary, splices its cross edges into the arc file, rebuilds overlay and
// rows in one pass over the members and encodes the next summary once
// (maintainReach). View and summary are published in one committed value, so
// no query pairs a new summary with old rows.
//
// Memory. Vertices of one local SCC share both rows, and rows are interned
// per shard, so the heap holds 16 bytes per vertex — shard, local id and two
// row indices — plus two words per portal and distinct·⌈P/64⌉ words, where
// distinct ≤ 2·(local SCC count) + 1. The worst case (every vertex its own SCC
// with its own portal set) is 2·n·P bits, next to the overlay closure itself
// (P·⌈log₂ k⌉ bits + k² bits over its k classes) and the arc file (about
// L + 2 bits a cross edge, L = ⌊log₂(n²/C)⌋ for C of them, read in place).
// Building them reads each shard once per local class: with K_s ≤ P_s
// classes among shard s's P_s portals, one bulk read of n_s bits each way per
// class, an OR of at most ⌈P_s/8⌉ bytes into the local row of every vertex a
// read reaches (one byte for a one-portal class), one P-bit expansion per
// overlay class, and at most one OR of an expanded row per overlay class
// among a distinct out row's portals. The overlay costs one search per class
// at Split — the subgraph's SCCs name the classes — and nothing beyond the
// rows' reads at PATCH, and holds at most K_s·P_s + P_s arcs inside shard s,
// against up to P_s² for an arc per reaching pair.
//
// Every shard's answerer is prepared before the rows are built — a member Π
// the scheme refuses fails the build, the load or the PATCH first — so the
// rows cover every shard and no query checks for a missing one.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
)

// reachSummary is the decoded cross-shard state for sharded reachability:
// the persisted cross-edge arc file and overlay closure, and what the
// assignment and the arc file determine. With its rows built it is also the
// dataset's answerer (core.Answerer) and, once committed, immutable:
// maintainReach shares what a batch leaves alone and replaces what it changes.
type reachSummary struct {
	n        int                     // global vertex count
	directed bool                    // orientation of the sharded graph
	cross    schemes.ArcFile         // cross-shard edges, global ids
	overlay  *graph.CondensedClosure // reflexive closure of the portal overlay, over portal indices

	// Derived at decode from the assignment (vertexShards) and the arc file
	// (findPortals), never persisted.
	shardOf []int32  // shardOf[v] = shard owning v
	local   []uint32 // local[v] = v's id inside its shard
	counts  []int    // counts[s] = vertices of shard s
	portals []int    // ascending global ids of cross-edge endpoints
	// byShard[s] lists shard s's portals as indices into portals, so row
	// building and the overlay rebuild touch each shard's own portals only.
	byShard [][]int

	// Derived by buildRows, never persisted: the answer path's state.
	reach   []schemes.LocalReach // per shard
	words   int                  // ⌈len(portals)/64⌉, the row stride
	rows    []uint64             // interned rows; row 0 is all-zero
	out, in []uint32             // per vertex: index of its row in rows
}

// findPortals derives the portals from the cross edges — their endpoints,
// ascending, grouped per shard — into fresh slices: the old ones may belong
// to the committed view. Streaming the arc file checks that its ids rise and
// hold no self-loop or reversed undirected arc; an edge the assignment puts
// inside one shard is refused here, since no build or PATCH writes one — the
// file is not this assignment's.
func (rs *reachSummary) findPortals() error {
	ends := make([]int, 0, 2*rs.cross.Len())
	err := rs.cross.Each(func(u, v int) error {
		if rs.shardOf[u] == rs.shardOf[v] {
			return fmt.Errorf("shard: cross edge (%d,%d) lies inside shard %d", u, v, rs.shardOf[u])
		}
		ends = append(ends, u, v)
		return nil
	})
	if err != nil {
		return err
	}
	slices.Sort(ends)
	rs.portals = slices.Compact(ends)
	rs.byShard = make([][]int, len(rs.counts))
	for i, p := range rs.portals {
		s := rs.shardOf[p]
		rs.byShard[s] = append(rs.byShard[s], i)
	}
	return nil
}

// portalIndex returns the overlay index of portal p.
func (rs *reachSummary) portalIndex(p int) int {
	i, _ := slices.BinarySearch(rs.portals, p)
	return i
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

// localReach returns shard s's typed reach form over nodes vertices, or an
// error when its answerer is not a reachability form of that size (a
// manifest paired with foreign shard files).
func localReach(shards []core.Answerer, s, nodes int) (schemes.LocalReach, error) {
	lr, ok := shards[s].(schemes.LocalReach)
	if !ok || lr.Nodes() != nodes {
		return nil, fmt.Errorf("shard: shard %d has no local-reach form over %d vertices", s, nodes)
	}
	return lr, nil
}

// scatterMask ORs mask into bytes lo.. of row v (stride bytes wide, in dst)
// for every vertex v whose bit is set in set: a whole local class's portal
// bits in one pass over what its search reached.
func scatterMask(set []uint64, dst []byte, stride, lo int, mask []byte) {
	for wi, w := range set {
		for ; w != 0; w &= w - 1 {
			row := dst[(wi<<6+bits.TrailingZeros64(w))*stride+lo:]
			for i, b := range mask {
				row[i] |= b
			}
		}
	}
}

// portalMask is one shard's portals seen from inside it: bit l of set is set
// iff local vertex l is a portal. Local ids and overlay indices both ascend
// with the global id, so a portal's position in rs.byShard[s] is its rank
// among the set bits — pre[w] counts the bits set in set[:w].
type portalMask struct {
	set []uint64
	pre []int32
}

// portalMask builds shard s's mask.
func (rs *reachSummary) portalMask(s int) portalMask {
	words := (rs.counts[s] + 63) / 64
	m := portalMask{set: make([]uint64, words), pre: make([]int32, words+1)}
	for _, pi := range rs.byShard[s] {
		l := rs.local[rs.portals[pi]]
		m.set[l>>6] |= 1 << (l & 63)
	}
	for w, x := range m.set {
		m.pre[w+1] = m.pre[w] + int32(bits.OnesCount64(x))
	}
	return m
}

// ranks appends to dst the position of every portal set in a — and in b too,
// when b is not nil — ascending.
func (m portalMask) ranks(dst []int, a, b []uint64) []int {
	for wi, mw := range m.set {
		w := mw & a[wi]
		if b != nil {
			w &= b[wi]
		}
		for ; w != 0; w &= w - 1 {
			below := mw & (1<<bits.TrailingZeros64(w) - 1)
			dst = append(dst, int(m.pre[wi])+bits.OnesCount64(below))
		}
	}
	return dst
}

// pendingRow is a distinct non-empty local row waiting for the overlay
// closure: its shard, its side, and its local portal bits.
type pendingRow struct {
	shard int
	out   bool
	key   string
}

// buildRows derives the answer-path state: the typed per-shard reach forms
// and the interned out/in portal rows (see the file comment for the formulas
// and the cost bound). A shard is read once per local class — the portals
// that reach each other inside it: one ReachFrom and one ReachTo from the
// class's first portal, the class being the portals both hold, and every
// vertex either read reaches takes all the class's bits at once. When overlay
// is not nil (a PATCH, whose closure is rebuilt from the same answerers) the
// same reads add each class's arcs to it (addClassArcs), and it is closed
// into rs.overlay before any row is widened. A shard without a reach form,
// or whose reads from a portal leave that portal out, fails the build.
func (rs *reachSummary) buildRows(shards []core.Answerer, overlay *graph.Graph) error {
	counts := rs.counts
	if len(shards) != len(counts) {
		return fmt.Errorf("shard: %d shard answerers for an assignment over %d shards", len(shards), len(counts))
	}
	members := make([][]int32, len(counts)) // members[s][l] = global id of local vertex l
	for s, c := range counts {
		members[s] = make([]int32, 0, c)
	}
	for v, s := range rs.shardOf {
		members[s] = append(members[s], int32(v))
	}
	rs.words = (len(rs.portals) + 63) / 64
	rs.reach = make([]schemes.LocalReach, len(counts))
	rs.out = make([]uint32, rs.n)
	rs.in = make([]uint32, rs.n)

	// Distinct local rows get their row index here — pending[i] is row i+1;
	// row 0 reaches no portal — and their bits once the overlay closure is
	// known (widenRows).
	var pending []pendingRow
	intern := func(seen map[string]uint32, key []byte, s int, out bool) uint32 {
		if idx, ok := seen[string(key)]; ok {
			return idx
		}
		k, idx := string(key), uint32(0)
		if slices.ContainsFunc(key, func(b byte) bool { return b != 0 }) {
			pending = append(pending, pendingRow{s, out, k})
			idx = uint32(len(pending))
		}
		seen[k] = idx
		return idx
	}

	for s, ns := range counts {
		lr, err := localReach(shards, s, ns)
		if err != nil {
			return err
		}
		rs.reach[s] = lr
		ps := rs.byShard[s]
		if len(ps) == 0 {
			continue
		}
		// Local rows over this shard's own portals, one bit per portal:
		// outL[u] = portals u reaches, inL[v] = portals reaching v.
		stride := (len(ps) + 7) / 8
		outL, inL := make([]byte, ns*stride), make([]byte, ns*stride)
		mask := rs.portalMask(s)
		from, to := make([]uint64, (ns+63)/64), make([]uint64, (ns+63)/64)
		classBits := make([]byte, stride)
		done := make([]bool, len(ps))
		var class, reached []int
		for j, pi := range ps {
			if done[j] {
				continue
			}
			lp := int(rs.local[rs.portals[pi]])
			clear(from)
			clear(to)
			lr.ReachFrom(lp, from)
			lr.ReachTo(lp, to)
			if from[lp>>6]>>(lp&63)&1 == 0 || to[lp>>6]>>(lp&63)&1 == 0 {
				return fmt.Errorf("shard: shard %d: local reach of portal %d does not include it", s, rs.portals[pi])
			}
			class = mask.ranks(class[:0], from, to)
			if overlay != nil {
				reached = mask.ranks(reached[:0], from, nil)
				addClassArcs(overlay, ps, class, reached)
			}
			clear(classBits)
			for _, k := range class {
				done[k] = true
				classBits[k>>3] |= 1 << (k & 7)
			}
			lo, hi := class[0]>>3, class[len(class)-1]>>3+1
			scatterMask(to, outL, stride, lo, classBits[lo:hi])
			scatterMask(from, inL, stride, lo, classBits[lo:hi])
		}
		// Intern: vertices of one local SCC share both local rows, so each
		// distinct local row is widened to a global row exactly once.
		outIdx, inIdx := map[string]uint32{}, map[string]uint32{}
		for l, v := range members[s] {
			rs.out[v] = intern(outIdx, outL[l*stride:(l+1)*stride], s, true)
			rs.in[v] = intern(inIdx, inL[l*stride:(l+1)*stride], s, false)
		}
	}
	if overlay != nil {
		var err error
		if rs.overlay, err = graph.NewCondensedClosure(overlay); err != nil {
			return err
		}
	}
	rs.widenRows(pending)
	return nil
}

// widenRows writes the global row of every distinct local row: an in row
// sets its portals' own bits; an out row ORs in the overlay row of each of
// its portals — expanded once per overlay class, by the first row that needs
// it — skipping a portal whose bit is already set, since a row that holds it
// holds everything it reaches.
func (rs *reachSummary) widenRows(pending []pendingRow) {
	rs.rows = make([]uint64, (1+len(pending))*rs.words)
	overlayRows := make([][]uint64, rs.overlay.Classes())
	for i, p := range pending {
		row := rs.rows[(1+i)*rs.words:][:rs.words]
		ps := rs.byShard[p.shard]
		for bi := 0; bi < len(p.key); bi++ {
			for b := p.key[bi]; b != 0; b &= b - 1 {
				pi := ps[bi<<3+bits.TrailingZeros8(b)]
				if row[pi>>6]>>(pi&63)&1 != 0 {
					continue
				}
				if !p.out {
					row[pi>>6] |= 1 << (pi & 63)
					continue
				}
				c := rs.overlay.Class(pi)
				if overlayRows[c] == nil {
					overlayRows[c] = make([]uint64, rs.words)
					rs.overlay.ReachFrom(pi, overlayRows[c])
				}
				for wi, w := range overlayRows[c] {
					row[wi] |= w
				}
			}
		}
	}
}

// prepareReach is the Sharding.Prepare hook: decode the summary once and
// derive the rows from the per-shard prepared answerers.
func prepareReach(summary []byte, asn Assignment, shards []core.Answerer) (core.Answerer, error) {
	rs, err := decodeReachSummary(summary, asn)
	if err != nil {
		return nil, err
	}
	if err := rs.buildRows(shards, nil); err != nil {
		return nil, err
	}
	return rs, nil
}

func encodeReachSummary(rs *reachSummary) []byte {
	cross := rs.cross.Bytes()
	b := make([]byte, 0, 2*binary.MaxVarintLen64+1+len(cross)+rs.overlay.WireLen())
	b = binary.AppendUvarint(b, uint64(rs.n))
	if rs.directed {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(cross)))
	b = append(b, cross...)
	return rs.overlay.AppendWire(b)
}

// decodeReachSummary reads a summary and derives the rest of its state from
// asn. Every refusal — a framing that does not hold, an arc id past n², ids
// out of order, a self-loop, an undirected arc stored as u > v, a cross edge
// inside one shard, an overlay that is not the closure of P portals — is an
// error, never a panic: a manifest carrying one is corrupt.
func decodeReachSummary(b []byte, asn Assignment) (*reachSummary, error) {
	n64, k := binary.Uvarint(b)
	if k <= 0 || n64 > graph.MaxDecodeVertices {
		return nil, fmt.Errorf("shard: corrupt reachability summary: vertex count")
	}
	if k >= len(b) || b[k] > 1 {
		return nil, fmt.Errorf("shard: corrupt reachability summary: orientation flag")
	}
	rs := &reachSummary{n: int(n64), directed: b[k] == 1}
	b = b[k+1:]
	size, k := binary.Uvarint(b)
	if k <= 0 || size > uint64(len(b)-k) {
		return nil, fmt.Errorf("shard: corrupt reachability summary: cross-edge arc file length")
	}
	b = b[k:]
	var err error
	if rs.cross, err = schemes.ParseArcFile(b[:size], rs.n, rs.directed); err != nil {
		return nil, fmt.Errorf("shard: cross edges: %w", err)
	}
	rs.shardOf, rs.local, rs.counts = vertexShards(rs.n, asn)
	if err := rs.findPortals(); err != nil {
		return nil, fmt.Errorf("shard: cross edges: %w", err)
	}
	if rs.overlay, err = graph.DecodeCondensedClosure(b[size:], len(rs.portals)); err != nil {
		return nil, fmt.Errorf("shard: overlay closure: %w", err)
	}
	return rs, nil
}

// vertexShards computes shard membership and local relabelling for every
// vertex: local ids are ranks within the shard in ascending global order.
func vertexShards(n int, asn Assignment) (shardOf []int32, local []uint32, counts []int) {
	shardOf = make([]int32, n)
	local = make([]uint32, n)
	counts = make([]int, asn.Shards())
	for v := 0; v < n; v++ {
		s := asn.Shard(int64(v))
		shardOf[v] = int32(s)
		local[v] = uint32(counts[s])
		counts[s]++
	}
	return shardOf, local, counts
}

// inducedSubgraphs builds each shard's induced subgraph under the local
// relabelling; edges crossing shards are dropped here and recovered by the
// portal overlay.
func inducedSubgraphs(g *graph.Graph, shardOf []int32, local []uint32, counts []int) ([]*graph.Graph, error) {
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
func buildReachSummary(g *graph.Graph, shardOf []int32, local []uint32, counts []int, subs []*graph.Graph) ([]byte, error) {
	var cross [][2]int
	for _, e := range g.Edges() {
		if shardOf[e[0]] != shardOf[e[1]] {
			cross = append(cross, e)
		}
	}
	file, err := schemes.EncodeArcs(g.N(), g.Directed(), cross)
	if err != nil {
		return nil, err
	}
	rs := &reachSummary{n: g.N(), directed: g.Directed(), shardOf: shardOf, local: local, counts: counts}
	if rs.cross, err = schemes.ParseArcFile(file, rs.n, rs.directed); err != nil {
		return nil, err
	}
	if err := rs.findPortals(); err != nil {
		return nil, err
	}
	overlay, err := rs.overlayGraph()
	if err != nil {
		return nil, err
	}
	// Within-shard portal reach is read off each shard's frozen subgraph once
	// per local class: the subgraph's SCCs group its portals, and one search
	// from a class's first portal into one reused row gives the class's arcs,
	// so building costs O(n_s/64) memory whatever scheme the shards are then
	// preprocessed under. A shard with fewer than two portals has no arcs.
	for s, ps := range rs.byShard {
		if len(ps) < 2 {
			continue
		}
		comp, count := subs[s].SCC()
		classOf := make([]int32, count) // SCC → 1 + index into classes
		var classes [][]int
		for j, pi := range ps {
			c := comp[rs.local[rs.portals[pi]]]
			if classOf[c] == 0 {
				classes = append(classes, nil)
				classOf[c] = int32(len(classes))
			}
			classes[classOf[c]-1] = append(classes[classOf[c]-1], j)
		}
		csr, mask := subs[s].Freeze(), rs.portalMask(s)
		set := make([]uint64, (rs.counts[s]+63)/64)
		var reached []int
		for _, class := range classes {
			clear(set)
			csr.ReachFrom(int(rs.local[rs.portals[ps[class[0]]]]), set)
			reached = mask.ranks(reached[:0], set, nil)
			addClassArcs(overlay, ps, class, reached)
		}
	}
	if rs.overlay, err = graph.NewCondensedClosure(overlay); err != nil {
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
// closure is allocated.
func checkPortals(portals int) error {
	if portals > maxPortals {
		return fmt.Errorf("shard: the portal overlay would hold %d cross-edge endpoints, over the %d-vertex closure limit (its closure takes P² bits); use fewer shards or the range partitioner", portals, maxPortals)
	}
	return nil
}

// overlayGraph starts the portal overlay: the portal cap, checked before
// anything is allocated for the closure, then one arc per cross edge (both
// ways when undirected). The within-shard arcs are added per local class
// (addClassArcs) by the caller, which closes it: over the shards' frozen
// subgraphs at Split (buildReachSummary), over their prepared answerers at
// PATCH (buildRows) — far below re-preprocessing the dataset either way.
func (rs *reachSummary) overlayGraph() (*graph.Graph, error) {
	if err := checkPortals(len(rs.portals)); err != nil {
		return nil, err
	}
	overlay := graph.New(len(rs.portals), true)
	err := rs.cross.Each(func(u, v int) error {
		pu, pv := rs.portalIndex(u), rs.portalIndex(v)
		overlay.MustAddEdge(pu, pv)
		if !rs.directed {
			overlay.MustAddEdge(pv, pu)
		}
		return nil
	})
	return overlay, err
}

// addClassArcs adds one local class's within-shard arcs to the overlay: an
// arc from its first member to every other portal of the shard it reaches
// (reached, positions in ps — the other members among them), and one back to
// the first member from each other member. Every member then reaches,
// through the first, exactly the portals it reaches inside the shard, so the
// overlay's closure — a function of reachability alone — is the one an arc
// per reaching portal pair gives, from a fraction of the arcs.
func addClassArcs(overlay *graph.Graph, ps, members, reached []int) {
	first := ps[members[0]]
	for _, j := range members[1:] {
		overlay.MustAddEdge(ps[j], first)
	}
	for _, j := range reached {
		if j != members[0] {
			overlay.MustAddEdge(first, ps[j])
		}
	}
}

// splitReachDelta routes an edge delta: a same-shard edge becomes one local
// relabelled delta of the same kind on its owning shard (the scheme's
// AddEdge and RemoveEdge both store both arcs of an undirected edge); a
// cross-shard edge touches no shard — induced subgraphs exclude cross edges
// — and lands entirely on the summary.
func splitReachDelta(delta []byte, _ Assignment, view core.Answerer) (map[int][][]byte, error) {
	rs := view.(*reachSummary)
	kind, u, v, err := schemes.DecodeEdgeDelta(delta, rs.n)
	if err != nil {
		return nil, err
	}
	su := int(rs.shardOf[u])
	if su != int(rs.shardOf[v]) {
		return nil, nil
	}
	local := core.TagDelta(kind, schemes.NodePairQuery(int(rs.local[u]), int(rs.local[v])))
	return map[int][][]byte{su: {local}}, nil
}

// applyCross applies one edge delta to the cross-edge arc file: a
// cross-shard insert splices the edge in (a present one is a no-op); a
// cross-shard delete splices it out — erroring when it was never there,
// matching the unsharded scheme's strict edge-delete contract. One nextGEQ
// finds the edge and one splice writes the next file; the committed file is
// never written in place. A same-shard edge changes no structure (SplitDelta
// already validated and routed it).
func (rs *reachSummary) applyCross(delta []byte) error {
	kind, u, v, err := schemes.DecodeEdgeDelta(delta, rs.n)
	if err != nil {
		return err
	}
	if rs.shardOf[u] == rs.shardOf[v] {
		return nil
	}
	next, had, err := rs.cross.Edit(u, v, kind == core.DeltaInsert)
	if err != nil {
		return err
	}
	if kind == core.DeltaDelete && !had {
		return fmt.Errorf("shard: cross edge (%d,%d) not present", u, v)
	}
	rs.cross = next
	return nil
}

// maintainReach is the Maintain hook. The next summary starts as the
// committed view's arc file; the batch's cross edges are spliced into it in
// delta order; then the portals are derived from the batch-final file, the
// overlay closure is rebuilt from it and the maintained per-shard answerers —
// once per batch, and even when no cross edge moved, since a same-shard
// insert can connect two portals locally — the rows are built on it, and it
// is encoded. The portal cap is checked there, before the closure is
// allocated. Nothing inside the batch reads the closure before that:
// splitReachDelta only needs the vertex universe and local relabelling, and
// queries keep answering through the committed view until the batch commits.
func maintainReach(view core.Answerer, _ Assignment, deltas [][]byte, shards []core.Answerer) ([]byte, core.Answerer, error) {
	cur := view.(*reachSummary)
	rs := &reachSummary{
		n: cur.n, directed: cur.directed, cross: cur.cross,
		shardOf: cur.shardOf, local: cur.local, counts: cur.counts,
	}
	for di, delta := range deltas {
		if err := rs.applyCross(delta); err != nil {
			return nil, nil, fmt.Errorf("delta %d: summary: %w", di, err)
		}
	}
	if err := rs.findPortals(); err != nil {
		return nil, nil, fmt.Errorf("finish summary: %w", err)
	}
	overlay, err := rs.overlayGraph()
	if err != nil {
		return nil, nil, fmt.Errorf("finish summary: %w", err)
	}
	if err := rs.buildRows(shards, overlay); err != nil {
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
