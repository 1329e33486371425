package schemes

import (
	"strings"
	"testing"

	"pitract/internal/core"
	"pitract/internal/graph"
)

// TestDeletionDifferential runs the defining incremental equation with
// mixed-kind sequences — insert, delete, re-insert, delete again —
// through every delta-capable scheme: after every update the maintained Π
// must answer every probe exactly like a from-scratch preprocessing of the
// updated data.
func TestDeletionDifferential(t *testing.T) {
	keys := []int64{2, 4, 6, 8, 10, 12}
	keyDeltas := [][]byte{
		KeysDelta([]int64{5, 7}),
		KeysDeleteDelta([]int64{4, 5}),
		KeysDelta([]int64{4, 9}),
		KeysDeleteDelta([]int64{4}),   // delete the re-inserted key again
		KeysDeleteDelta([]int64{999}), // absent: idempotent tombstone
		KeysDelta([]int64{2}),         // present: no-op insert
	}
	keyProbes := make([][]byte, 0, 24)
	for _, k := range []int64{2, 4, 5, 6, 7, 8, 9, 10, 12, 999, 1} {
		keyProbes = append(keyProbes, PointQuery(k))
	}
	rangeProbes := make([][]byte, 0, 12)
	for _, r := range [][2]int64{{0, 3}, {3, 5}, {4, 4}, {5, 9}, {9, 12}, {13, 998}, {998, 1000}} {
		rangeProbes = append(rangeProbes, RangeQuery(r[0], r[1]))
	}

	dg := graph.New(7, true)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
		dg.MustAddEdge(e[0], e[1])
	}
	dgDeltas := [][]byte{
		EdgeDelta(2, 3),       // bridge
		EdgeDeleteDelta(1, 2), // cut upstream of the bridge
		EdgeDelta(1, 2),       // restore
		EdgeDeleteDelta(2, 3), // un-bridge: downstream reachability collapses
		EdgeDelta(0, 1),       // present: no-op
		EdgeDelta(5, 6),
		EdgeDeleteDelta(5, 6), // delete a just-inserted edge
	}
	ug := graph.New(7, false)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
		ug.MustAddEdge(e[0], e[1])
	}
	pairProbes := make([][]byte, 0, 49)
	for u := 0; u < 7; u++ {
		for v := 0; v < 7; v++ {
			pairProbes = append(pairProbes, NodePairQuery(u, v))
		}
	}

	cases := []struct {
		name   string
		inc    *core.IncrementalScheme
		data   []byte
		deltas [][]byte
		probes [][]byte
	}{
		{"point-selection/sorted-keys", IncrementalPointSelection(), RelationFromKeys(keys), keyDeltas, keyProbes},
		{"range-selection/sorted-keys", IncrementalRangeSelection(), RelationFromKeys(keys), keyDeltas, rangeProbes},
		{"list-membership/sorted", IncrementalListMembership(), EncodeList(keys), keyDeltas, keyProbes},
		{"reachability/closure-matrix", IncrementalReachability(), dg.Encode(), dgDeltas, pairProbes},
		{"reachability/closure-matrix (undirected)", IncrementalReachability(), ug.Encode(), dgDeltas, pairProbes},
		{"reachability/bfs-per-query", IncrementalReachabilityBFS(), dg.Encode(), dgDeltas, pairProbes},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.inc.VerifyIncremental(tc.data, tc.deltas, tc.probes); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDecrementalClosureReroute pins the Vigny fast path: deleting an edge
// that a surviving path bypasses must leave the closure matrix bitwise
// unchanged (no row recompute), and the appendix graph must drop the edge.
func TestDecrementalClosureReroute(t *testing.T) {
	g := graph.New(4, true)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2) // the bypass
	g.MustAddEdge(2, 3)
	inc := IncrementalReachability()
	pd, err := inc.Scheme.Preprocess(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	next, err := inc.ApplyDelta(pd, EdgeDeleteDelta(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	// 0 still reaches 1 via nothing? No: 0→1 was the only arc into 1 from 0.
	// Reachability 0⇝1 is gone; but deleting (0,2) instead reroutes via 1.
	// Check the rerouting case explicitly:
	rerouted, err := inc.ApplyDelta(pd, EdgeDeleteDelta(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := inc.Scheme.Answer(rerouted, NodePairQuery(0, 3))
	if err != nil || !ok {
		t.Fatalf("0⇝3 must survive deleting the shortcut (0,2): %v %v", ok, err)
	}
	// And the disconnecting delete must actually disconnect.
	ok, err = inc.Scheme.Answer(next, NodePairQuery(0, 1))
	if err != nil || ok {
		t.Fatalf("0⇝1 must not survive deleting (0,1): %v %v", ok, err)
	}
	if err := inc.VerifyIncremental(g.Encode(),
		[][]byte{EdgeDeleteDelta(0, 2), EdgeDeleteDelta(0, 1)}, [][]byte{
			NodePairQuery(0, 1), NodePairQuery(0, 2), NodePairQuery(0, 3),
			NodePairQuery(1, 3), NodePairQuery(2, 3),
		}); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteAbsentEdgeErrors: unlike key tombstones, retracting an edge
// that is not there is an error (see EdgeDeleteDelta), and a failed delete
// must not disturb the artifact.
func TestDeleteAbsentEdgeErrors(t *testing.T) {
	g := graph.New(3, true)
	g.MustAddEdge(0, 1)
	for _, inc := range []*core.IncrementalScheme{IncrementalReachability(), IncrementalReachabilityBFS()} {
		pd, err := inc.Scheme.Preprocess(g.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inc.ApplyDelta(pd, EdgeDeleteDelta(1, 2)); err == nil {
			t.Fatalf("%s: deleting an absent edge succeeded", inc.Name())
		}
		if ok, err := inc.Scheme.Answer(pd, NodePairQuery(0, 1)); err != nil || !ok {
			t.Fatalf("%s: failed delete disturbed the artifact: %v %v", inc.Name(), ok, err)
		}
	}
}

// TestHostileTombstones throws malformed deltas at every delta-capable
// scheme: junk payloads, truncated envelopes, unknown kind bytes and
// untagged bytes must error cleanly — never panic, never partially apply.
func TestHostileTombstones(t *testing.T) {
	hostile := [][]byte{
		core.TagDelta(core.DeltaDelete, []byte{0x80}),                   // truncated uvarint payload
		core.TagDelta(core.DeltaDelete, []byte{0xFF, 0xFF, 0xFF, 0xFF}), // junk
		core.TagDelta(core.DeltaInsert, nil),                            // empty payload
		{0xFF, 0xFF, 0xFF, 0x00, 0x02, 1, 2},                            // the retired upsert kind
		{0xFF, 0xFF, 0xFF, 0x00, 0x09, 1, 2, 3},                         // unknown kind
		EncodeList([]int64{2}),                                          // untagged (pre-PR 25) insert
	}
	cases := []struct {
		name   string
		inc    *core.IncrementalScheme
		data   []byte
		canary []byte
	}{
		{"point-selection/sorted-keys", IncrementalPointSelection(), RelationFromKeys([]int64{2, 4}), PointQuery(2)},
		{"range-selection/sorted-keys", IncrementalRangeSelection(), RelationFromKeys([]int64{2, 4}), RangeQuery(2, 4)},
		{"list-membership/sorted", IncrementalListMembership(), EncodeList([]int64{2, 4}), PointQuery(2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pd, err := tc.inc.Scheme.Preprocess(tc.data)
			if err != nil {
				t.Fatal(err)
			}
			for i, h := range hostile {
				if _, err := tc.inc.ApplyDelta(pd, h); err == nil {
					t.Fatalf("hostile delta %d accepted", i)
				}
				if ok, err := tc.inc.Scheme.Answer(pd, tc.canary); err != nil || !ok {
					t.Fatalf("hostile delta %d disturbed the artifact: %v %v", i, ok, err)
				}
			}
		})
	}
}

// TestNoReappearance pins the tombstone ordering contract the race suite
// leans on: insert → delete → (unrelated churn) must never resurrect a key;
// only an explicit re-insert may.
func TestNoReappearance(t *testing.T) {
	inc := IncrementalPointSelection()
	pd, err := inc.Scheme.Preprocess(RelationFromKeys([]int64{2, 4}))
	if err != nil {
		t.Fatal(err)
	}
	steps := [][]byte{
		KeysDelta([]int64{100}),
		KeysDeleteDelta([]int64{100}),
		KeysDelta([]int64{7, 9}),          // unrelated churn
		KeysDelta([]int64{11}),            // unrelated churn
		KeysDeleteDelta([]int64{100, 50}), // idempotent re-delete
	}
	for i, d := range steps {
		if pd, err = inc.ApplyDelta(pd, d); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if i >= 1 {
			if ok, _ := inc.Scheme.Answer(pd, PointQuery(100)); ok {
				t.Fatalf("step %d: deleted key 100 reappeared", i)
			}
		}
	}
	// Explicit re-insert is the only way back.
	pd, err = inc.ApplyDelta(pd, KeysDelta([]int64{100}))
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := inc.Scheme.Answer(pd, PointQuery(100)); !ok {
		t.Fatal("explicit re-insert did not restore key 100")
	}
}

// TestPreAppendixClosureRefusesDeletes pins the migration contract for
// closures persisted in a layout older than the condensed one — n² bits
// without the graph appendix (whose undirected flag may also predate it), and
// n² bits with it: the header's layout bits are required, so every reader
// refuses such a payload — a delete, an insert, a raw probe, Prepare — with
// one error that tells the operator what to do. Never misread, never a panic.
func TestPreAppendixClosureRefusesDeletes(t *testing.T) {
	g := graph.New(3, true)
	g.MustAddEdge(0, 1)
	ug := graph.Path(5, false)
	inc := IncrementalReachability()
	for name, legacy := range map[string][]byte{
		"pre-appendix":            denseClosureBytesRef(g, false),
		"pre-appendix-undirected": denseClosureBytesRef(ug, false),
		"dense-with-appendix":     denseClosureBytesRef(g, true),
		"dense-undirected":        denseClosureBytesRef(ug, true),
	} {
		_, rawErr := inc.Scheme.Answer(legacy, NodePairQuery(0, 1))
		_, prepErr := inc.Scheme.Prepare(legacy)
		_, insErr := inc.ApplyDelta(legacy, EdgeDelta(1, 2))
		_, delErr := inc.ApplyDelta(legacy, EdgeDeleteDelta(0, 1))
		for reader, err := range map[string]error{"Answer": rawErr, "Prepare": prepErr, "insert": insErr, "delete": delErr} {
			if err == nil {
				t.Fatalf("%s: %s read a legacy layout", name, reader)
			}
			if err.Error() != rawErr.Error() || !strings.Contains(err.Error(), "re-register") {
				t.Fatalf("%s: %s refused with %q; want the one error (%q) that says to re-register", name, reader, err, rawErr)
			}
		}
	}
}
