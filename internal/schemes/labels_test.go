package schemes

// Unit and differential coverage for the succinct reachability labeling:
// the PLL builder against the dense closure, the payload codec round-trip,
// the succinct-vs-dense scheme differential (verdicts AND error strings),
// relabel-on-commit maintenance, and the fail-closed decoder (see also
// FuzzDecodeLabels).

import (
	"bytes"
	"testing"

	"pitract/internal/graph"
)

// labelsPayload preprocesses g through the labels scheme, panicking on
// failure — usable from both tests and fuzz-seed registration.
func labelsPayload(g *graph.Graph) []byte {
	pd, err := ReachabilityLabelsScheme().Preprocess(g.Encode())
	if err != nil {
		panic(err)
	}
	return pd
}

// TestBuildPLLMatchesClosure pins the 2-hop labeling's core invariant on
// random DAGs: Lout[x] ∩ Lin[y] ≠ ∅ exactly when x reaches y.
func TestBuildPLLMatchesClosure(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		dag := graph.RandomDAG(30+int(seed)*7, 60+int(seed)*15, seed)
		lout, lin := buildPLL(dag)
		cl := graph.NewClosure(dag)
		for x := 0; x < dag.N(); x++ {
			for y := 0; y < dag.N(); y++ {
				want := cl.Reach(x, y)
				got := intersectSorted(lout[x], lin[y])
				if got != want {
					t.Fatalf("seed %d: label probe (%d,%d) = %v, closure %v", seed, x, y, got, want)
				}
			}
		}
	}
}

// TestBuildPLLEdgeShapes covers the degenerate shapes: empty graph, single
// vertex, and a path (where labels should stay tiny).
func TestBuildPLLEdgeShapes(t *testing.T) {
	empty := graph.New(0, true)
	if lout, lin := buildPLL(empty); len(lout) != 0 || len(lin) != 0 {
		t.Fatalf("empty DAG labels: %d/%d", len(lout), len(lin))
	}
	one := graph.New(1, true)
	lout, lin := buildPLL(one)
	if !intersectSorted(lout[0], lin[0]) {
		t.Fatal("single vertex does not reach itself through its labels")
	}
	path := graph.Path(50, true)
	lout, lin = buildPLL(path)
	cl := graph.NewClosure(path)
	for x := 0; x < 50; x++ {
		for y := 0; y < 50; y++ {
			if intersectSorted(lout[x], lin[y]) != cl.Reach(x, y) {
				t.Fatalf("path probe (%d,%d) diverges", x, y)
			}
		}
	}
}

// TestLabelsCodecRoundTrip pins encode→decode as the identity on the
// decoded form, for directed and undirected graphs.
func TestLabelsCodecRoundTrip(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"directed":   graph.RandomDirected(40, 120, 5),
		"undirected": graph.RandomConnectedUndirected(30, 60, 9),
		"empty-dir":  graph.New(0, true),
		"community":  graph.CommunityGraph(4, 8, 6, 2),
	} {
		t.Run(name, func(t *testing.T) {
			rl, err := buildReachLabels(g)
			if err != nil {
				t.Fatal(err)
			}
			enc := encodeLabels(rl)
			dec, err := decodeLabels(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !bytes.Equal(encodeLabels(dec), enc) {
				t.Fatal("re-encode diverges from original encoding")
			}
			for u := 0; u < g.N(); u++ {
				for v := 0; v < g.N(); v++ {
					if rl.reach(u, v) != dec.reach(u, v) {
						t.Fatalf("decoded labels answer (%d,%d) differently", u, v)
					}
				}
			}
		})
	}
}

// TestLabelsVsDenseDifferential is the scheme-level half of the succinct
// differential suite: for every query — in range, out of range, malformed
// — the labels scheme and the dense closure oracle must return identical
// verdicts and identical error strings, on both the raw and prepared
// paths.
func TestLabelsVsDenseDifferential(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"directed-sparse": graph.RandomDirected(40, 60, 1),
		"directed-dense":  graph.RandomDirected(32, 300, 2),
		"community":       graph.CommunityGraph(5, 8, 10, 3),
		"undirected":      graph.RandomConnectedUndirected(36, 70, 4),
		"dag":             graph.RandomDAG(45, 110, 5),
	} {
		t.Run(name, func(t *testing.T) {
			dense, succinct := ReachabilityScheme(), ReachabilityLabelsScheme()
			densePd, err := dense.Preprocess(g.Encode())
			if err != nil {
				t.Fatal(err)
			}
			succinctPd, err := succinct.Preprocess(g.Encode())
			if err != nil {
				t.Fatal(err)
			}
			denseAns, err := dense.Prepare(densePd)
			if err != nil {
				t.Fatal(err)
			}
			succinctAns, err := succinct.Prepare(succinctPd)
			if err != nil {
				t.Fatal(err)
			}
			n := g.N()
			queries := [][]byte{}
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					queries = append(queries, NodePairQuery(u, v))
				}
			}
			queries = append(queries, NodePairQuery(n, 0), NodePairQuery(0, n+7), []byte{3}, nil)
			for i, q := range queries {
				dGot, dErr := denseAns.Answer(q)
				sGot, sErr := succinctAns.Answer(q)
				rGot, rErr := succinct.Answer(succinctPd, q)
				if (dErr == nil) != (sErr == nil) || (dErr == nil) != (rErr == nil) {
					t.Fatalf("query %d: dense err %v, labels prepared err %v, labels raw err %v", i, dErr, sErr, rErr)
				}
				if dErr != nil {
					if dErr.Error() != sErr.Error() || dErr.Error() != rErr.Error() {
						t.Fatalf("query %d: error strings diverge:\n dense: %v\n prep:  %v\n raw:   %v", i, dErr, sErr, rErr)
					}
					continue
				}
				if dGot != sGot || dGot != rGot {
					t.Fatalf("query %d: dense %v, labels prepared %v, labels raw %v", i, dGot, sGot, rGot)
				}
			}
		})
	}
}

// TestLabelsArtifactSmallerOnCommunityGraph pins what the succinct scheme
// buys in bytes: on a community-shaped graph (dense SCC cores the compression
// collapses) its Π is no larger than the closure-matrix scheme's own. Both are
// mostly the graph appendix here, so the closure — stored over the
// condensation — is within a quarter of the labels, and the bar holds it there:
// a closure layout that grows back towards n² bits fails this test.
func TestLabelsArtifactSmallerOnCommunityGraph(t *testing.T) {
	d := graph.CommunityGraph(10, 30, 40, 7).Encode()
	closurePd, err := ReachabilityScheme().Preprocess(d)
	if err != nil {
		t.Fatal(err)
	}
	succinctPd, err := ReachabilityLabelsScheme().Preprocess(d)
	if err != nil {
		t.Fatal(err)
	}
	if l, c := len(succinctPd), len(closurePd); l > c || 4*c > 5*l {
		t.Fatalf("labels artifact %d bytes, closure matrix %d — want labels ≤ closure ≤ 1.25 × labels", l, c)
	}
}

// TestLabelsMaintainedEqualsRebuilt pins relabel-on-commit: a mixed
// insert/upsert/delete run through the incremental form must leave Π
// byte-identical to a from-scratch Preprocess of the maintained graph.
func TestLabelsMaintainedEqualsRebuilt(t *testing.T) {
	g := graph.RandomDirected(28, 60, 13)
	inc := IncrementalReachabilityLabels()
	pd, err := inc.Scheme.Preprocess(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	deltas := [][]byte{
		EdgeDelta(0, 27),
		EdgeDeleteDelta(int(edges[0][0]), int(edges[0][1])),
		EdgeUpsertDelta(3, 9),
		EdgeUpsertDelta(3, 9), // present: no-op
		EdgeDelta(26, 1),
		EdgeDeleteDelta(int(edges[5][0]), int(edges[5][1])),
	}
	maintained := g.Clone()
	for i, d := range deltas {
		if pd, err = inc.ApplyDelta(pd, d); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		enc, err := applyEdgeToGraph(maintained.Encode(), d)
		if err != nil {
			t.Fatalf("delta %d on raw graph: %v", i, err)
		}
		if maintained, err = graph.Decode(enc); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
	rebuilt, err := inc.Scheme.Preprocess(maintained.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pd, rebuilt) {
		t.Fatalf("maintained Π (%d bytes) != rebuilt Π (%d bytes)", len(pd), len(rebuilt))
	}
}

// TestLabelsDeltaRefusedCleanly pins the refusal contract: a bad delta
// errors without changing the payload, with the closure scheme's exact
// error string.
func TestLabelsDeltaRefusedCleanly(t *testing.T) {
	g := graph.RandomDirected(10, 20, 3)
	inc := IncrementalReachabilityLabels()
	pd, err := inc.Scheme.Preprocess(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), pd...)
	for _, tc := range []struct {
		delta []byte
		want  string
	}{
		{EdgeDelta(10, 0), "schemes: bad edge delta (10,0)"},
		{EdgeDelta(0, 99), "schemes: bad edge delta (0,99)"},
		{EdgeDelta(4, 4), "schemes: bad edge delta (4,4)"},
		{[]byte{1, 2, 3}, ""}, // malformed pair: any error, nothing applied
	} {
		out, err := inc.ApplyDelta(pd, tc.delta)
		if err == nil {
			t.Fatalf("delta %x applied", tc.delta)
		}
		if tc.want != "" && err.Error() != tc.want {
			t.Fatalf("error = %q, want %q", err, tc.want)
		}
		if out != nil {
			t.Fatalf("failed delta returned a payload")
		}
		if !bytes.Equal(pd, before) {
			t.Fatal("failed delta mutated the payload")
		}
	}
}

// TestDecodeLabelsHostile pins fail-closed decoding on crafted payloads:
// clean errors, no panics, no unbounded allocation.
func TestDecodeLabelsHostile(t *testing.T) {
	valid := labelsPayload(graph.RandomDirected(12, 30, 1))
	cases := map[string][]byte{
		"empty":               nil,
		"kind-only":           {labelsKindDirected},
		"unknown-kind":        {7, 4},
		"huge-n":              append([]byte{labelsKindDirected}, 0xff, 0xff, 0xff, 0xff, 0xff, 0x07),
		"n-over-remaining":    {labelsKindDirected, 200, 1},
		"truncated-body":      valid[:len(valid)/2],
		"trailing-garbage":    append(append([]byte(nil), valid...), 0xAB),
		"appendix-length-lie": valid[:len(valid)-1],
	}
	for name, pd := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeLabels(pd); err == nil {
				t.Fatalf("hostile payload decoded")
			}
			// The prepared path must refuse identically (same entry point).
			if _, err := prepareLabels(pd); err == nil {
				t.Fatalf("hostile payload prepared")
			}
		})
	}
}

// FuzzDecodeLabels drives the labels decoder with mutated payloads: it
// must never panic, and anything it accepts must re-encode/re-decode
// stably and answer in-range queries without panicking.
func FuzzDecodeLabels(f *testing.F) {
	f.Add(labelsPayload(graph.RandomDirected(10, 25, 2)))
	f.Add(labelsPayload(graph.RandomConnectedUndirected(8, 14, 3)))
	f.Add(labelsPayload(graph.New(0, true)))
	f.Add([]byte{labelsKindDirected, 0, 0})
	f.Add([]byte{labelsKindUndirected, 3, 0, 0, 0, 0})
	f.Add([]byte{labelsKindDirected, 200, 0xff, 0xff})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, pd []byte) {
		rl, err := decodeLabels(pd)
		if err != nil {
			return
		}
		enc := encodeLabels(rl)
		rl2, err := decodeLabels(enc)
		if err != nil {
			t.Fatalf("accepted payload fails to round-trip: %v", err)
		}
		if !bytes.Equal(encodeLabels(rl2), enc) {
			t.Fatal("re-encoding is unstable")
		}
		for u := 0; u < rl.n && u < 8; u++ {
			for v := 0; v < rl.n && v < 8; v++ {
				rl.reach(u, v) // must not panic
			}
		}
	})
}

// TestLabelsSchemeInCatalogs pins the wiring: the labels scheme is
// maintainable and shardable by name.
func TestLabelsSchemeInCatalogs(t *testing.T) {
	if IncrementalForScheme("reachability/labels") == nil {
		t.Fatal("labels scheme has no incremental form")
	}
	found := false
	for _, n := range MaintainableSchemes() {
		if n == "reachability/labels" {
			found = true
		}
	}
	if !found {
		t.Fatal("labels scheme missing from MaintainableSchemes")
	}
	if got := ReachabilityLabelsScheme().Name(); got != "reachability/labels" {
		t.Fatalf("scheme name = %q", got)
	}
}
