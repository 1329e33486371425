package schemes

// The scheme concurrency contract (core/batch.go) promises that after one
// preprocessing pass and one Prepare, the Answerer is safe from any number
// of goroutines. This file enforces the contract for every scheme in the
// package: a stress test hammers each scheme's one Answerer from many
// goroutines under the race detector, and a batch test checks AnswerBatch against one-at-a-time
// answering on real schemes (including the Theorem 5 chain, whose
// compiled-tableau cache is the one piece of shared mutable state).

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pitract/internal/circuit"
	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/relation"
	"pitract/internal/tm"
)

// schemeCase is one (scheme, database, queries) triple covering every
// scheme constructor in the package.
type schemeCase struct {
	name    string
	scheme  *core.Scheme
	d       []byte
	queries [][]byte
}

func allSchemeCases(t testing.TB) []schemeCase {
	t.Helper()
	rng := rand.New(rand.NewSource(99))

	rel := relation.Generate(relation.GenConfig{Rows: 512, Seed: 3, KeyMax: 1024})
	relBytes := rel.Encode()
	var pointQs, rangeQs [][]byte
	for i := 0; i < 48; i++ {
		pointQs = append(pointQs, PointQuery(rng.Int63n(2048)))
		lo := rng.Int63n(2048)
		rangeQs = append(rangeQs, RangeQuery(lo, lo+rng.Int63n(64)))
	}

	list := make([]int64, 400)
	for i := range list {
		list[i] = rng.Int63n(800)
	}
	listBytes := EncodeList(list)

	dg := graph.RandomDirected(96, 300, 5)
	ug := graph.RandomConnectedUndirected(96, 200, 7)
	var nodeQs [][]byte
	for i := 0; i < 48; i++ {
		nodeQs = append(nodeQs, NodePairQuery(rng.Intn(96), rng.Intn(96)))
	}
	var bdsPadded [][]byte
	ugBytes := ug.Encode()
	for i := 0; i < 16; i++ {
		bdsPadded = append(bdsPadded, core.PadPair(ugBytes, NodePairQuery(rng.Intn(96), rng.Intn(96))))
	}

	inst := cvpInstanceBytes(t, 256)
	var gateQs [][]byte
	for i := 0; i < 48; i++ {
		gateQs = append(gateQs, GateQuery(rng.Intn(256)))
	}

	bits := []bool{true, false, true, true, false, true}
	tmInput := EncodeBits(bits)

	return []schemeCase{
		{"point-selection", PointSelectionScheme(), relBytes, pointQs},
		{"point-selection-scan", PointSelectionScanScheme(), relBytes, pointQs},
		{"range-selection", PointSelectionScheme(), relBytes, rangeQs},
		{"list-membership", ListMembershipScheme(), listBytes, pointQs},
		{"reachability-closure", ReachabilityScheme(), dg.Encode(), nodeQs},
		{"reachability-bfs", ReachabilityBFSScheme(), dg.Encode(), nodeQs},
		{"bds-visit-order", BDSScheme(), ugBytes, nodeQs},
		{"bds-no-preprocessing", BDSNoPreprocessScheme(), nil, bdsPadded},
		{"cvp-gate-values", CVPGateValueScheme(), inst, gateQs},
		{"cvp-empty-data", CVPNoPreprocessScheme(), nil, [][]byte{inst}},
		{"tm-via-bds", TMSchemeViaBDS(tm.Parity()), tmInput, [][]byte{tmInput}},
	}
}

func cvpInstanceBytes(t testing.TB, gates int) []byte {
	t.Helper()
	circ := circuit.Generate(circuit.GenConfig{Inputs: 8, Gates: gates, Seed: 21})
	return circuit.EncodeInstance(&circuit.Instance{Circuit: circ, Inputs: circuit.RandomInputs(8, 22)})
}

// TestAnswerConcurrencyContract preprocesses and prepares each scheme once,
// computes the expected verdicts sequentially, then fires many goroutines
// that replay all queries concurrently against the one Answerer. Run under
// -race this catches both data races and nondeterministic answers.
func TestAnswerConcurrencyContract(t *testing.T) {
	const goroutines = 12
	for _, tc := range allSchemeCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			pd, err := tc.scheme.Preprocess(tc.d)
			if err != nil {
				t.Fatalf("preprocess: %v", err)
			}
			a, err := tc.scheme.Prepare(pd)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			want := make([]bool, len(tc.queries))
			for i, q := range tc.queries {
				want[i], err = a.Answer(q)
				if err != nil {
					t.Fatalf("sequential answer %d: %v", i, err)
				}
			}
			var wg sync.WaitGroup
			errc := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Each goroutine walks the queries from a different
					// offset so distinct queries overlap in time.
					for k := range tc.queries {
						i := (k + g*7) % len(tc.queries)
						got, err := a.Answer(tc.queries[i])
						if err != nil {
							errc <- fmt.Errorf("goroutine %d query %d: %v", g, i, err)
							return
						}
						if got != want[i] {
							errc <- fmt.Errorf("goroutine %d query %d: got %v, want %v", g, i, got, want[i])
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}
		})
	}
}

// TestAnswerBatchMatchesLoop checks the AnswerBatch worker pool against
// the plain loop on every scheme.
func TestAnswerBatchMatchesLoop(t *testing.T) {
	for _, tc := range allSchemeCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			pd, err := tc.scheme.Preprocess(tc.d)
			if err != nil {
				t.Fatalf("preprocess: %v", err)
			}
			want, err := tc.scheme.AnswerBatch(pd, tc.queries, 1)
			if err != nil {
				t.Fatalf("sequential batch: %v", err)
			}
			got, err := tc.scheme.AnswerBatch(pd, tc.queries, 6)
			if err != nil {
				t.Fatalf("parallel batch: %v", err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("query %d: parallel %v, sequential %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestPreparedBFSSharedByConcurrentAskers: the BFS baseline's prepared form
// is one immutable CSR plus a pool of per-search scratch, so 8 goroutines
// asking one answerer at once (run under -race) must each get the
// Language's verdict.
func TestPreparedBFSSharedByConcurrentAskers(t *testing.T) {
	const n, goroutines = 160, 8
	s := ReachabilityBFSScheme()
	for name, g := range map[string]*graph.Graph{
		"directed":   graph.RandomDirected(n, 330, 21),
		"undirected": graph.RandomConnectedUndirected(n, 40, 22),
		"path":       graph.Path(n, true),
	} {
		pd := g.Encode()
		ans, err := s.Prepare(pd)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 600; i++ {
					u, v := (i*7+w*13)%n, (i*11+w*29)%n
					q := NodePairQuery(u, v)
					want, err := reachabilityLanguage().Contains(pd, q)
					if err != nil {
						t.Errorf("%s: reference (%d,%d): %v", name, u, v, err)
						return
					}
					got, err := ans.Answer(q)
					if err != nil || got != want {
						t.Errorf("%s: worker %d: (%d,%d) prepared %v (%v), reference %v", name, w, u, v, got, err, want)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}
