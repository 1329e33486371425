package shard

// The portal overlay is built once per local class — the portals of one
// shard that reach each other inside it — at Split through the shards'
// frozen subgraphs (buildReachSummary, classes from each subgraph's SCCs),
// at PATCH through their prepared answerers (buildRows, classes from one
// search each way), and its closure is stored over its
// reachability-equivalence classes. These tests hold the summary
// bytes to a reference build — one whole-graph BFS per portal and an arc per
// reaching portal pair, one search per overlay vertex, classes (equal strict
// ancestors and descendants, internal/graph/reachref) and class rows one bit
// at a time — on shapes whose shards hold one class of many portals,
// only singleton classes, or both, and pin the cap on the portal count.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/graph/reachref"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// reachSummaryRef is the reference summary: portals and overlay arcs from one
// Graph.BFS per portal on its induced subgraph, the overlay closed by one
// Graph.BFS per overlay vertex — classes are reachref's, equal strict
// ancestor and descendant sets numbered by smallest member — and the class
// ids and rows packed one bit at a time,
// behind the vertex count, the orientation and the cross edges' arc file.
func reachSummaryRef(g *graph.Graph, asn Assignment) []byte {
	shardOf, local, counts := vertexShards(g.N(), asn)
	subs := make([]*graph.Graph, len(counts))
	for s, c := range counts {
		subs[s] = graph.New(c, g.Directed())
	}
	for _, e := range g.Edges() {
		if shardOf[e[0]] == shardOf[e[1]] {
			subs[shardOf[e[0]]].MustAddEdge(int(local[e[0]]), int(local[e[1]]))
		}
	}
	isPortal := make([]bool, g.N())
	var cross [][2]int
	for _, e := range g.Edges() {
		if shardOf[e[0]] != shardOf[e[1]] {
			isPortal[e[0]], isPortal[e[1]] = true, true
			cross = append(cross, e)
		}
	}
	var portals []int
	portalIdx := map[int]int{}
	for v := 0; v < g.N(); v++ {
		if isPortal[v] {
			portalIdx[v] = len(portals)
			portals = append(portals, v)
		}
	}
	overlay := graph.New(len(portals), true)
	for _, e := range cross {
		overlay.MustAddEdge(portalIdx[e[0]], portalIdx[e[1]])
		if !g.Directed() {
			overlay.MustAddEdge(portalIdx[e[1]], portalIdx[e[0]])
		}
	}
	for _, p := range portals {
		_, dist := subs[shardOf[p]].BFS(int(local[p]))
		for _, q := range portals {
			if p != q && shardOf[p] == shardOf[q] && dist[local[q]] >= 0 {
				overlay.MustAddEdge(portalIdx[p], portalIdx[q])
			}
		}
	}
	P := len(portals)
	reach := make([][]bool, P)
	for i := range reach {
		_, dist := overlay.BFS(i)
		reach[i] = make([]bool, P)
		for j, d := range dist {
			reach[i][j] = d >= 0
		}
	}
	class, k := reachref.Classes(reach)
	w := 0
	for 1<<w < k {
		w++
	}
	ids := make([]byte, 8*((P*w+63)/64))
	for i, c := range class {
		for j := 0; j < w; j++ {
			if bit := i*w + j; c>>j&1 != 0 {
				ids[bit/8] |= 1 << (bit % 8)
			}
		}
	}
	packed := append(binary.LittleEndian.AppendUint32(nil, uint32(k)), ids...)
	rows := reachref.Rows(reach, class, k)
	packed = append(packed, rows...)
	// n ‖ orientation ‖ the cross edges' arc file, length-prefixed ‖ the
	// overlay; nothing the assignment determines.
	arcs, err := schemes.EncodeArcs(g.N(), g.Directed(), cross)
	if err != nil {
		panic(err)
	}
	ref := binary.AppendUvarint(nil, uint64(g.N()))
	if g.Directed() {
		ref = append(ref, 1)
	} else {
		ref = append(ref, 0)
	}
	ref = append(binary.AppendUvarint(ref, uint64(len(arcs))), arcs...)
	return append(ref, packed...)
}

// TestOverlaySummaryBytesUnchanged: the sharded summary (what the manifest
// carries and PrepBytes counts) is byte for byte the reference's, on every
// shape × shard count — including a shard with one portal or
// none (skipped by the build) and portal counts off a byte boundary.
func TestOverlaySummaryBytesUnchanged(t *testing.T) {
	shapes := map[string]*graph.Graph{
		"random-directed": graph.RandomDirected(90, 200, 1),
		"random-sparse":   sparseGraph(60, 30, true, 2),
		"random-dag":      graph.RandomDAG(70, 160, 3),
		"community":       graph.CommunityGraph(4, 16, 6, 4),
		"connected-undir": graph.RandomConnectedUndirected(64, 20, 5),
		"sparse-undir":    sparseGraph(50, 25, false, 6),
		"path-directed":   graph.Path(33, true),
		"path-undirected": graph.Path(33, false),
		"edgeless":        graph.New(12, true),
		"no-vertices":     graph.New(0, true),
		"community-wide":  graph.CommunityGraph(4, 32, 48, 7),
		"cycle-blocks":    blockGraph(4, 16, 16, 24, 8),
		"scc-with-tail":   blockGraph(4, 16, 10, 24, 9),
	}
	for name, g := range shapes {
		for _, n := range []int{1, 2, 3, 4} {
			asn, _, got, err := splitReach(g.Encode(), n)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, n, err)
			}
			if !bytes.Equal(got, reachSummaryRef(g, asn)) {
				t.Fatalf("%s/%d: summary differs from the per-portal-BFS build", name, n)
			}
		}
	}
}

// blockGraph is nb blocks of size vertices — block b is vertices b·size to
// b·size+size−1, one range shard at n = nb — plus cross random arcs between
// blocks. In each block the first scc vertices form one directed cycle and
// the rest a tail, each vertex arcing to the next and the last into the
// cycle: a block is one SCC when scc = size, and one SCC with a DAG tail
// into it otherwise, so a portal on the tail is a class of its own that
// reaches the cycle's one class of many.
func blockGraph(nb, size, scc, cross int, seed int64) *graph.Graph {
	g := graph.New(nb*size, true)
	for b := 0; b < nb; b++ {
		base := b * size
		for i := 0; i < scc; i++ {
			if scc > 1 {
				g.MustAddEdge(base+i, base+(i+1)%scc)
			}
		}
		for i := scc; i < size; i++ {
			if i+1 < size {
				g.MustAddEdge(base+i, base+i+1)
			} else {
				g.MustAddEdge(base+i, base)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for added := 0; added < cross; {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u/size != v/size && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
			added++
		}
	}
	g.Normalize()
	return g
}

// scatteredCommunity is CommunityGraph(c, s, cross, seed) with member i of
// every community renumbered into key range i mod n of n equal ranges
// (s a multiple of n): each community's cycle steps from range to range, so
// a range split into n parts cuts through every community.
func scatteredCommunity(c, s, cross int, seed int64, n int) *graph.Graph {
	g := graph.CommunityGraph(c, s, cross, seed)
	id := func(v int) int { com, i := v/s, v%s; return i%n*(c*s/n) + i/n*c + com }
	h := graph.New(g.N(), g.Directed())
	for _, e := range g.Edges() {
		h.MustAddEdge(id(e[0]), id(e[1]))
	}
	h.Normalize()
	return h
}

// TestScatteredCutMakesEveryPortalItsOwnClass reaches the worst case of the
// per-class build and of the view's memory on the benchmark's community
// graph: cut through every community, each of the four range shards holds
// no local SCC of two portals, so every vertex is a portal and its own
// local class, and the view interns 2·n + 1 rows. The same graph split
// along its communities has four classes and nine rows.
func TestScatteredCutMakesEveryPortalItsOwnClass(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		g                      *graph.Graph
		portals, classes, rows int
	}{
		{"along", graph.CommunityGraph(8, 256, 512, 1), 672, 4, 9},
		{"scattered", scatteredCommunity(8, 256, 512, 1, 4), 2048, 2048, 4097},
	} {
		ss, err := Build("g", schemes.ReachabilityScheme(), ForScheme("reachability/closure-matrix"), RangePartitioner{}, 4, tc.g.Encode())
		if err != nil {
			t.Fatal(err)
		}
		rs := ss.Committed().View().(*reachSummary)
		csr, err := graph.Decode(tc.g.Encode())
		if err != nil {
			t.Fatal(err)
		}
		subs, _ := splitEdges(csr, rs.shardOf, rs.local, rs.counts)
		classes := 0
		for s, ps := range rs.byShard {
			comp, _ := subs[s].SCC()
			seen := map[int32]bool{}
			for _, pi := range ps {
				seen[comp[rs.local[rs.portals[pi]]]] = true
			}
			classes += len(seen)
		}
		if got := len(rs.rows) / rs.words; len(rs.portals) != tc.portals || classes != tc.classes || got != tc.rows {
			t.Errorf("%s: %d portals in %d local classes, %d rows; want %d, %d, %d",
				tc.name, len(rs.portals), classes, got, tc.portals, tc.classes, tc.rows)
		}
	}
}

// FuzzOverlaySummary: any graph of at most 48 vertices, directed or not,
// split into two to four key ranges, gets the reference's
// summary bytes, the same bytes again when the overlay is rebuilt from the
// members' prepared answerers (the PATCH path, on an empty batch), and every
// pair's sharded verdict equal to the unsharded closure's. The first byte
// picks orientation (bit 0), shard count (bits 2–3) and member scheme (bit
// 4), the second the vertex count; each further pair of bytes is an edge.
func FuzzOverlaySummary(f *testing.F) {
	f.Add([]byte{0x00, 12, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3, 2, 3, 5, 6, 6, 7, 7, 8, 8, 6})
	f.Add([]byte{0x07, 48, 0, 47, 5, 9, 9, 5, 12, 30, 30, 31, 31, 12, 40, 2})
	f.Add([]byte{0x0a, 20, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 5, 6, 6, 7, 7, 5, 1, 6, 7, 2})
	f.Add([]byte{0x15, 9, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(blockGraphSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		h := data[0]
		nv := int(data[1]) % 49
		g := graph.New(nv, h&1 != 0)
		for i := 2; i+1 < len(data) && nv > 0; i += 2 {
			if u, v := int(data[i])%nv, int(data[i+1])%nv; u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		g.Normalize()
		n := 2 + int(h>>2)%3 // bit 1 picked a partitioner when there were two
		scheme := []*core.Scheme{schemes.ReachabilityScheme(), schemes.ReachabilityLabelsScheme()}[int(h>>4)%2]

		asn, _, summary, err := splitReach(g.Encode(), n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(summary, reachSummaryRef(g, asn)) {
			t.Fatalf("n=%d: summary differs from the per-portal-BFS build", n)
		}
		ss, err := Build("g", scheme, ForScheme(scheme.Name()), RangePartitioner{}, n, g.Encode())
		if err != nil {
			t.Fatal(err)
		}
		c := ss.Committed()
		answerers := make([]core.Answerer, len(c.Members()))
		for i, m := range c.Members() {
			answerers[i] = m.Answerer
		}
		rebuilt, _, err := maintainReach(c.View(), ss.Asn, nil, answerers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rebuilt, summary) {
			t.Fatalf("n=%d: the overlay rebuilt from the members' answerers differs from the split's", n)
		}
		want := graph.NewClosure(g)
		for u := 0; u < nv; u++ {
			for v := 0; v < nv; v++ {
				got, err := ss.Answer(schemes.NodePairQuery(u, v))
				if err != nil || got != want.Reach(u, v) {
					t.Fatalf("%d/%s: (%d,%d) = %v, %v; unsharded closure %v", n, scheme.Name(), u, v, got, err, want.Reach(u, v))
				}
			}
		}
	})
}

// blockGraphSeed is a 48-vertex blockGraph as a FuzzOverlaySummary input:
// three range shards of one cycle and a tail each, closure members.
func blockGraphSeed() []byte {
	g := blockGraph(3, 16, 11, 12, 10)
	b := []byte{0x07, byte(g.N())}
	for _, e := range g.Edges() {
		b = append(b, byte(e[0]), byte(e[1]))
	}
	return b
}

// lowerPortalCap sets the overlay cap for one test: the real one needs a
// 65 537-portal overlay — half a gigabyte of closure — to reach.
func lowerPortalCap(t *testing.T, limit int) {
	t.Helper()
	old := maxPortals
	maxPortals = limit
	t.Cleanup(func() { maxPortals = old })
}

// TestOverlayPortalCap: a registration whose cut has more portals than the
// cap is refused before the overlay closure is allocated, and a PATCH that
// would lift a registered dataset's overlay over it is refused whole —
// nothing applied, version unchanged, every verdict as before — for both
// sharded reachability schemes.
func TestOverlayPortalCap(t *testing.T) {
	if maxPortals != graph.MaxClosureVertices {
		t.Fatalf("the overlay cap is %d, not graph.MaxClosureVertices", maxPortals)
	}
	// Two directed chains, one per range shard, joined by one cross edge:
	// two portals. Any further cross edge between fresh vertices adds two.
	g := graph.New(16, true)
	for v := 0; v < 7; v++ {
		g.MustAddEdge(v, v+1)
		g.MustAddEdge(8+v, 9+v)
	}
	g.MustAddEdge(7, 8)
	lowerPortalCap(t, 3)

	for _, scheme := range []*core.Scheme{schemes.ReachabilityScheme(), schemes.ReachabilityLabelsScheme()} {
		t.Run(scheme.Name(), func(t *testing.T) {
			reg := store.NewRegistry(t.TempDir())
			ss, err := RegisterSharded(reg, "g", scheme, 2, g.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if got := len(portalSet(t, ss)); got != 2 {
				t.Fatalf("fixture has %d portals, want 2", got)
			}
			cur := g.Clone()
			assertRowsProbingClosure(t, ss, cur, "registered")
			summary := append([]byte(nil), ss.Committed().Summary()...)

			// A same-shard edge first, so "nothing applied" has something to
			// show: the batch must not leave it behind in shard 0.
			batch := [][]byte{schemes.EdgeDelta(5, 2), schemes.EdgeDelta(3, 12)}
			_, err = reg.ApplyDelta("g", batch)
			if err == nil || !strings.Contains(err.Error(), "3-vertex closure limit") {
				t.Fatalf("PATCH lifting the overlay to 4 portals: %v, want the cap error", err)
			}
			ds, _ := reg.GetDataset("g")
			ss = ds.(*ShardedStore)
			if ss.Version() != 0 {
				t.Fatalf("refused PATCH moved the version to %d", ss.Version())
			}
			if !bytes.Equal(ss.Committed().Summary(), summary) {
				t.Fatal("refused PATCH changed the summary")
			}
			assertRowsProbingClosure(t, ss, cur, "after the refused PATCH")

			// Under the cap the same dataset keeps taking deltas: a second
			// cross edge between the two existing portals adds none.
			cur.MustAddEdge(8, 7)
			cur.Normalize()
			if _, err := reg.ApplyDelta("g", [][]byte{schemes.EdgeDelta(8, 7)}); err != nil {
				t.Fatalf("PATCH within the cap: %v", err)
			}
			ds, _ = reg.GetDataset("g")
			assertRowsProbingClosure(t, ds.(*ShardedStore), cur, "after a PATCH within the cap")
		})
	}

	// Registration: the same graph under a cap its two portals exceed.
	lowerPortalCap(t, 1)
	_, err := RegisterSharded(store.NewRegistry(""), "g", schemes.ReachabilityScheme(), 2, g.Encode())
	if err == nil || !strings.Contains(err.Error(), "1-vertex closure limit") {
		t.Fatalf("registration with 2 portals under a cap of 1: %v, want the cap error", err)
	}
}

// irreflexiveReach is a member whose bulk reads from a vertex leave that
// vertex out — ReachTo's when to is set, ReachFrom's otherwise: a Π that
// passes every CRC and layout check but whose closure lost its diagonal.
type irreflexiveReach struct {
	core.Answerer
	schemes.LocalReach
	to bool
}

func (r irreflexiveReach) ReachFrom(u int, row []uint64) {
	r.LocalReach.ReachFrom(u, row)
	if !r.to {
		row[u>>6] &^= 1 << (u & 63)
	}
}

func (r irreflexiveReach) ReachTo(v int, col []uint64) {
	r.LocalReach.ReachTo(v, col)
	if r.to {
		col[v>>6] &^= 1 << (v & 63)
	}
}

// TestIrreflexiveLocalReachIsRefused: a member whose reads from a portal
// leave that portal out fails the rows' build — at prepare (a load, which
// then quarantines the manifest) and at the PATCH rebuild — with an error,
// not an index panic.
func TestIrreflexiveLocalReachIsRefused(t *testing.T) {
	g := blockGraph(2, 12, 8, 4, 1)
	scheme := schemes.ReachabilityScheme()
	ss, err := Build("g", scheme, ForScheme(scheme.Name()), RangePartitioner{}, 2, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	c := ss.Committed()
	for _, to := range []bool{false, true} {
		answerers := make([]core.Answerer, len(c.Members()))
		for i, m := range c.Members() {
			answerers[i] = m.Answerer
		}
		answerers[0] = irreflexiveReach{answerers[0], answerers[0].(schemes.LocalReach), to}
		const want = "does not include it"
		if _, err := prepareReach(c.Summary(), ss.Asn, answerers); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("to=%v: prepare = %v, want an error naming %q", to, err, want)
		}
		if _, _, err := maintainReach(c.View(), ss.Asn, nil, answerers); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("to=%v: PATCH rebuild = %v, want an error naming %q", to, err, want)
		}
	}
}
