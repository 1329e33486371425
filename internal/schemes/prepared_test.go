package schemes

// Differential pinning of the prepared answerers against the raw Answer
// oracle: for every scheme in the table, the prepared probe must return the
// identical verdict — and on bad queries the identical error string — as
// Answer(pd, q) on the same preprocessed string. For the schemes that declare
// no typed form that holds by construction (Prepare closes over the raw
// Answer); their verdicts are pinned by VerifyAgainst the Language's
// reference scan.

import (
	"runtime"
	"testing"

	"pitract/internal/circuit"
	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/relation"
)

// preparedCase is one scheme plus a workload: a data part and a query mix
// that exercises hits, misses, bounds violations, and malformed queries.
type preparedCase struct {
	scheme  *core.Scheme
	data    []byte
	queries [][]byte
}

func preparedCases(t *testing.T) map[string]preparedCase {
	t.Helper()
	rel := relation.Generate(relation.GenConfig{Rows: 300, Seed: 7, KeyMax: 500})
	list := EncodeList([]int64{-9, 0, 3, 3, 14, 99, 1 << 40})
	dg := graph.RandomDirected(48, 130, 11)
	ug := graph.RandomConnectedUndirected(40, 90, 3)
	inst := circuit.Generate(circuit.GenConfig{Inputs: 8, Gates: 64, Seed: 5})
	cvp := circuit.EncodeInstance(&circuit.Instance{Circuit: inst, Inputs: circuit.RandomInputs(8, 6)})

	selQueries := [][]byte{}
	for k := int64(-3); k < 40; k += 7 {
		selQueries = append(selQueries, PointQuery(k))
	}
	selQueries = append(selQueries, []byte{1, 2}, nil) // malformed

	rangeQueries := [][]byte{
		RangeQuery(0, 10), RangeQuery(10, 0), RangeQuery(-50, 600),
		RangeQuery(77, 77), []byte{9}, nil,
	}

	pairQueries := func(n int) [][]byte {
		qs := [][]byte{}
		for u := 0; u < n; u += 5 {
			for v := 1; v < n; v += 7 {
				qs = append(qs, NodePairQuery(u, v))
			}
		}
		// Out-of-range pairs and malformed queries.
		return append(qs, NodePairQuery(n, 0), NodePairQuery(0, n+3), []byte{1}, nil)
	}

	gateQueries := [][]byte{GateQuery(0), GateQuery(5), GateQuery(63), GateQuery(64), GateQuery(1 << 20), []byte{7}, nil}

	return map[string]preparedCase{
		"point-sorted": {PointSelectionScheme(), rel.Encode(), selQueries},
		"point-scan":   {PointSelectionScanScheme(), rel.Encode(), selQueries},
		"range":        {RangeSelectionScheme(), rel.Encode(), rangeQueries},
		"list":         {ListMembershipScheme(), list, selQueries},
		"closure-dir":  {ReachabilityScheme(), dg.Encode(), pairQueries(48)},
		"closure-und":  {ReachabilityScheme(), ug.Encode(), pairQueries(40)},
		"labels-dir":   {ReachabilityLabelsScheme(), dg.Encode(), pairQueries(48)},
		"labels-und":   {ReachabilityLabelsScheme(), ug.Encode(), pairQueries(40)},
		"bfs":          {ReachabilityBFSScheme(), dg.Encode(), pairQueries(48)},
		"bds":          {BDSScheme(), ug.Encode(), pairQueries(40)},
		"cvp":          {CVPGateValueScheme(), cvp, gateQueries},
	}
}

// typedForm is which schemes declare a PrepareAnswerer: the ones whose
// Prepare saves a validation or a decode per query. The sorted key files and
// the BDS pos file are laid out for probing, so their raw Answer is the
// prepared form. A scheme gaining or losing a typed form is an edit here.
var typedForm = map[string]bool{
	"point-selection/sorted-keys": false,
	"point-selection/scan":        true,
	"range-selection/sorted-keys": false,
	"list-membership/sorted":      false,
	"reachability/closure-matrix": true,
	"reachability/labels":         true,
	"reachability/bfs-per-query":  true,
	"bds/visit-order":             false,
	"cvp/gate-values":             true,
}

// TestPreparedVsRawDifferential pins prepared ≡ raw, query for query and
// error string for error string.
func TestPreparedVsRawDifferential(t *testing.T) {
	for name, tc := range preparedCases(t) {
		t.Run(name, func(t *testing.T) {
			want, listed := typedForm[tc.scheme.Name()]
			if got := tc.scheme.PrepareAnswerer != nil; !listed || got != want {
				t.Fatalf("scheme %s: typed prepared form declared = %v, typedForm says %v (listed %v)", tc.scheme.Name(), got, want, listed)
			}
			pd, err := tc.scheme.Preprocess(tc.data)
			if err != nil {
				t.Fatal(err)
			}
			ans, err := tc.scheme.Prepare(pd)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			for i, q := range tc.queries {
				rawGot, rawErr := tc.scheme.Answer(pd, q)
				prepGot, prepErr := ans.Answer(q)
				if (rawErr == nil) != (prepErr == nil) {
					t.Fatalf("query %d: raw err %v, prepared err %v", i, rawErr, prepErr)
				}
				if rawErr != nil {
					if rawErr.Error() != prepErr.Error() {
						t.Fatalf("query %d: error strings diverge:\n raw:      %v\n prepared: %v", i, rawErr, prepErr)
					}
					continue
				}
				if rawGot != prepGot {
					t.Fatalf("query %d: raw %v, prepared %v", i, rawGot, prepGot)
				}
			}
		})
	}
}

// TestPreparedRejectsCorruptPayload pins that Prepare surfaces the same
// validation error the raw path reports per query, for the schemes that
// validate their payload.
func TestPreparedRejectsCorruptPayload(t *testing.T) {
	cases := map[string]struct {
		scheme *core.Scheme
		pd     []byte
	}{
		"closure-short-header":  {ReachabilityScheme(), []byte{1, 2, 3}},
		"closure-length-lie":    {ReachabilityScheme(), append(core.EncodeUint64(100), 0xff)},
		"cvp-short-header":      {CVPGateValueScheme(), []byte{9}},
		"cvp-length-lie":        {CVPGateValueScheme(), append(core.EncodeUint64(1000), 1)},
		"bfs-corrupt-graph":     {ReachabilityBFSScheme(), []byte{0xff, 0xff, 0xff, 0xff, 0xff}},
		"scan-corrupt-relation": {PointSelectionScanScheme(), []byte{0xff, 0xff}},
	}
	valid, err := ReachabilityScheme().Preprocess(graph.RandomDirected(20, 50, 1).Encode())
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range closureCorruptions(t, valid) {
		cases["closure-"+name] = struct {
			scheme *core.Scheme
			pd     []byte
		}{ReachabilityScheme(), bad}
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, prepErr := tc.scheme.Prepare(tc.pd)
			if prepErr == nil {
				t.Fatalf("prepare accepted corrupt payload")
			}
			_, rawErr := tc.scheme.Answer(tc.pd, NodePairQuery(0, 1))
			if rawErr == nil {
				t.Fatalf("raw path accepted corrupt payload")
			}
			if rawErr.Error() != prepErr.Error() {
				t.Fatalf("error strings diverge:\n raw:      %v\n prepared: %v", rawErr, prepErr)
			}
		})
	}
}

// TestPreparedFallbackCoversEveryScheme pins the seam's totality: a scheme
// without a typed prepared form still answers through Prepare (via the raw
// fallback), identically to Answer.
func TestPreparedFallbackCoversEveryScheme(t *testing.T) {
	s := BDSNoPreprocessScheme()
	pd, err := s.Preprocess(nil)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := s.Prepare(pd)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.RandomConnectedUndirected(16, 30, 2)
	q := core.PadPair(g.Encode(), NodePairQuery(1, 5))
	rawGot, rawErr := s.Answer(pd, q)
	prepGot, prepErr := ans.Answer(q)
	if rawErr != nil || prepErr != nil {
		t.Fatalf("raw err %v, prepared err %v", rawErr, prepErr)
	}
	if rawGot != prepGot {
		t.Fatalf("fallback diverged: raw %v, prepared %v", rawGot, prepGot)
	}
}

// TestPreparedProbeAllocs pins the zero-allocation probe: decoding the
// query (slice-free since core.DecodeUint64Into) and probing the decoded Π
// allocate nothing for the O(1)/O(log n) schemes.
func TestPreparedProbeAllocs(t *testing.T) {
	cases := preparedCases(t)
	for _, name := range []string{"point-sorted", "range", "list", "closure-dir", "closure-und", "labels-dir", "labels-und", "bds"} {
		tc := cases[name]
		pd, err := tc.scheme.Preprocess(tc.data)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := tc.scheme.Prepare(pd)
		if err != nil {
			t.Fatal(err)
		}
		q := tc.queries[1]
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := ans.Answer(q); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: prepared probe allocates %.1f times per query, want 0", name, allocs)
		}
	}
}

// TestLocalReachMatchesAnswer pins the typed seam under sharded
// reachability against the Answer it shadows: Reach, and every bit of
// every ReachFrom row and ReachTo column, equals the encoded-query verdict
// — for all three reachability answerers, directed and undirected.
func TestLocalReachMatchesAnswer(t *testing.T) {
	cases := preparedCases(t)
	// Rows longer than one word, at a width that is not a multiple of 64:
	// the closure's realigning row copy crosses word boundaries.
	cases["closure-wide"] = preparedCase{scheme: ReachabilityScheme(), data: graph.RandomDirected(130, 170, 4).Encode()}
	for _, name := range []string{"closure-dir", "closure-und", "closure-wide", "labels-dir", "labels-und", "bfs"} {
		tc := cases[name]
		pd, err := tc.scheme.Preprocess(tc.data)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := tc.scheme.Prepare(pd)
		if err != nil {
			t.Fatal(err)
		}
		lr, ok := ans.(LocalReach)
		if !ok {
			t.Fatalf("%s: prepared answerer %T is not a LocalReach", name, ans)
		}
		n := lr.Nodes()
		words := (n + 63) / 64
		for u := 0; u < n; u++ {
			row, col := make([]uint64, words), make([]uint64, words)
			lr.ReachFrom(u, row)
			lr.ReachTo(u, col)
			for v := 0; v < n; v++ {
				fwd, err := ans.Answer(NodePairQuery(u, v))
				if err != nil {
					t.Fatal(err)
				}
				bwd, err := ans.Answer(NodePairQuery(v, u))
				if err != nil {
					t.Fatal(err)
				}
				bit := func(set []uint64) bool { return set[v>>6]>>(v&63)&1 != 0 }
				if lr.Reach(u, v) != fwd || bit(row) != fwd || bit(col) != bwd {
					t.Fatalf("%s: (%d,%d): Answer %v/%v, Reach %v, ReachFrom bit %v, ReachTo bit %v",
						name, u, v, fwd, bwd, lr.Reach(u, v), bit(row), bit(col))
				}
			}
			for i := n; i < words*64; i++ {
				if (row[i>>6]|col[i>>6])>>(i&63)&1 != 0 {
					t.Fatalf("%s: bulk read of vertex %d set bit %d beyond the %d vertices", name, u, i, n)
				}
			}
		}
	}
}

// TestSortedKeyPrepareIsConstant pins that Π is held once: for the schemes
// whose Π is laid out for probing, Prepare closes over the committed bytes —
// it must not rebuild a decoded copy of them (8·n bytes for a key file, 4·n
// for the pos file) at every registration, reload, replayed record and PATCH.
func TestSortedKeyPrepareIsConstant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun: nobody else allocates
	const n = 1 << 16
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(3 * i)
	}
	for _, tc := range []struct {
		scheme *core.Scheme
		data   []byte
	}{
		{PointSelectionScheme(), RelationFromKeys(keys)},
		{RangeSelectionScheme(), RelationFromKeys(keys)},
		{ListMembershipScheme(), EncodeList(keys)},
		{BDSScheme(), graph.RandomConnectedUndirected(n, 2*n, 9).Encode()},
	} {
		pd, err := tc.scheme.Preprocess(tc.data)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := tc.scheme.Prepare(pd); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1<<10 {
			t.Errorf("%s: Prepare of a %d-byte Π allocates %d bytes, want < 1 KB", tc.scheme.Name(), len(pd), per)
		}
	}
}
