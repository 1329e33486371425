package shard

// The portal overlay is built by one function (rebuildClosure) on the
// condensation kernel and stored over its condensation, at Build through the
// shards' frozen subgraphs and at PATCH through their prepared answerers. These
// tests hold the summary bytes to a reference build — one whole-graph BFS per
// portal, one search per overlay vertex, classes and class rows one bit at a
// time — and pin the cap on the portal count.

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// reachSummaryRef is the reference summary: portals and overlay arcs from one
// Graph.BFS per portal on its induced subgraph, the overlay closed by one
// Graph.BFS per overlay vertex — classes are mutual reachability, numbered by
// smallest member — and the class ids and rows packed one bit at a time,
// behind the vertex count, the orientation and the cross edges' arc file.
func reachSummaryRef(g *graph.Graph, asn Assignment) []byte {
	shardOf, local, counts := vertexShards(g.N(), asn)
	subs, err := inducedSubgraphs(g, shardOf, local, counts)
	if err != nil {
		panic(err)
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
	reach := make([][]int, P)
	for i := range reach {
		_, reach[i] = overlay.BFS(i)
	}
	class := make([]int, P)
	var smallest []int
	for i := range class {
		class[i] = -1
		for c, s := range smallest {
			if reach[i][s] >= 0 && reach[s][i] >= 0 {
				class[i] = c
			}
		}
		if class[i] < 0 {
			class[i] = len(smallest)
			smallest = append(smallest, i)
		}
	}
	k := len(smallest)
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
	stride := 8 * ((k + 63) / 64)
	rows := make([]byte, k*stride)
	for c, s := range smallest {
		for d, t := range smallest {
			if reach[s][t] >= 0 {
				rows[c*stride+d/8] |= 1 << (d % 8)
			}
		}
	}
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
// shape × partitioner × shard count — including a shard with one portal or
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
	}
	for name, g := range shapes {
		for _, p := range []Partitioner{HashPartitioner{}, RangePartitioner{}} {
			for _, n := range []int{1, 2, 3, 4} {
				asn, _, got, err := splitReach(g.Encode(), p, n)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", name, p.Name(), n, err)
				}
				if !bytes.Equal(got, reachSummaryRef(g, asn)) {
					t.Fatalf("%s/%s/%d: summary differs from the per-portal-BFS build", name, p.Name(), n)
				}
			}
		}
	}
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
// schemes that take sharded deltas.
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
			ss, err := RegisterSharded(reg, "g", scheme, RangePartitioner{}, 2, g.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if got := len(portalSet(t, ss)); got != 2 {
				t.Fatalf("fixture has %d portals, want 2", got)
			}
			cur := g.Clone()
			assertRowsProbingClosure(t, ss, cur, "registered")
			summary := append([]byte(nil), ss.state.Load().summary...)

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
			if !bytes.Equal(ss.state.Load().summary, summary) {
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
	_, err := RegisterSharded(store.NewRegistry(""), "g", schemes.ReachabilityBFSScheme(), RangePartitioner{}, 2, g.Encode())
	if err == nil || !strings.Contains(err.Error(), "1-vertex closure limit") {
		t.Fatalf("registration with 2 portals under a cap of 1: %v, want the cap error", err)
	}
}
