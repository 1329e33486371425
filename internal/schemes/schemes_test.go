package schemes

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"strings"
	"testing"

	"pitract/internal/circuit"
	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/relation"
	"pitract/internal/tm"
)

// reachabilityLanguage is S2 from Example 3: ⟨G, (s, t)⟩ with the answer
// "there is a path from s to t in G", decided by BFS.
func reachabilityLanguage() core.Language {
	return core.LanguageFunc{
		LangName: "S2-reachability",
		Decide: func(d, q []byte) (bool, error) {
			g, err := graph.Decode(d)
			if err != nil {
				return false, err
			}
			u, v, err := DecodeNodePairQuery(q)
			if err != nil {
				return false, err
			}
			if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
				return false, fmt.Errorf("schemes: node pair (%d,%d) out of range", u, v)
			}
			return g.Reachable(u, v), nil
		},
	}
}

// bdsEmptyData is S(BDS, Υ0), Figure 1's Υ′ read as a language: the data
// part is ε and the query the whole instance, so ρ returns the query.
var bdsEmptyData = core.PairLanguage(BDSProblem(), &core.Factorization{
	FactName: "empty-data",
	Rho:      func(_, q []byte) ([]byte, error) { return q, nil },
})

func relationPairs(t *testing.T, rows int, seed int64) (d []byte, queries [][]byte) {
	t.Helper()
	rel := relation.Generate(relation.GenConfig{Rows: rows, Seed: seed, KeyMax: int64(rows)})
	rng := rand.New(rand.NewSource(seed + 99))
	for i := 0; i < 50; i++ {
		queries = append(queries, PointQuery(rng.Int63n(int64(rows)*2)))
	}
	return rel.Encode(), queries
}

func verifyScheme(t *testing.T, s *core.Scheme, lang core.Language, d []byte, queries [][]byte) {
	t.Helper()
	pairs := make([]core.Pair, 0, len(queries))
	for _, q := range queries {
		pairs = append(pairs, core.Pair{D: d, Q: q})
	}
	if err := s.VerifyAgainst(lang, pairs); err != nil {
		t.Fatal(err)
	}
}

func TestPointSelectionSchemes(t *testing.T) {
	d, queries := relationPairs(t, 400, 3)
	verifyScheme(t, PointSelectionScheme(), SelectionLanguage(), d, queries)
	verifyScheme(t, PointSelectionScanScheme(), SelectionLanguage(), d, queries)
}

// TestRangeSelectionScheme: range selection is the sorted-key scheme's second
// query, held to the range language.
func TestRangeSelectionScheme(t *testing.T) {
	rel := relation.Generate(relation.GenConfig{Rows: 300, Seed: 5, KeyMax: 300})
	d := rel.Encode()
	rng := rand.New(rand.NewSource(8))
	var queries [][]byte
	for i := 0; i < 60; i++ {
		lo := rng.Int63n(350) - 10
		hi := lo + rng.Int63n(40) - 5 // sometimes inverted
		queries = append(queries, RangeQuery(lo, hi))
	}
	verifyScheme(t, PointSelectionScheme(), RangeSelectionLanguage(), d, queries)
}

func TestListMembershipScheme(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	list := make([]int64, 500)
	for i := range list {
		list[i] = rng.Int63n(1000) - 500
	}
	d := EncodeList(list)
	// Round-trip check of the list codec.
	back, err := DecodeList(d)
	if err != nil || len(back) != len(list) {
		t.Fatalf("list codec broken: %v", err)
	}
	var queries [][]byte
	for i := 0; i < 60; i++ {
		queries = append(queries, PointQuery(rng.Int63n(1200)-600))
	}
	verifyScheme(t, ListMembershipScheme(), ListMembershipLanguage(), d, queries)
}

func TestDecodeListRejectsCorrupt(t *testing.T) {
	good := EncodeList([]int64{1, -2, 3})
	for i, bad := range [][]byte{nil, good[:1], good[:len(good)-1], append(append([]byte{}, good...), 0)} {
		if _, err := DecodeList(bad); err == nil {
			t.Errorf("case %d decoded", i)
		}
	}
}

func TestReachabilitySchemes(t *testing.T) {
	g := graph.RandomDirected(40, 120, 11)
	d := g.Encode()
	rng := rand.New(rand.NewSource(12))
	var queries [][]byte
	for i := 0; i < 80; i++ {
		queries = append(queries, NodePairQuery(rng.Intn(40), rng.Intn(40)))
	}
	verifyScheme(t, ReachabilityScheme(), reachabilityLanguage(), d, queries)
	verifyScheme(t, ReachabilityBFSScheme(), reachabilityLanguage(), d, queries)
	// Out-of-range queries must error, not misanswer.
	s := ReachabilityScheme()
	pd, err := s.Preprocess(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Answer(pd, NodePairQuery(0, 99)); err == nil {
		t.Error("out-of-range reachability query accepted")
	}
}

func TestBDSSchemes(t *testing.T) {
	g := graph.RandomConnectedUndirected(50, 30, 13)
	d := g.Encode()
	rng := rand.New(rand.NewSource(14))
	var queries [][]byte
	for i := 0; i < 80; i++ {
		queries = append(queries, NodePairQuery(rng.Intn(50), rng.Intn(50)))
	}
	verifyScheme(t, BDSScheme(), BDSLanguage(), d, queries)

	// The Υ′ scheme answers over the empty-data factorization: pairs are
	// (ε, whole-instance).
	noPre := BDSNoPreprocessScheme()
	lang := bdsEmptyData
	var pairs []core.Pair
	for _, q := range queries {
		pairs = append(pairs, core.Pair{D: nil, Q: core.PadPair(d, q)})
	}
	if err := noPre.VerifyAgainst(lang, pairs); err != nil {
		t.Fatal(err)
	}
	if _, err := noPre.Preprocess([]byte("junk")); err == nil {
		t.Error("Υ′ accepted a non-empty data part")
	}
	// Both factorizations answer identically — Figure 1's two rows agree
	// on every query; only the costs differ.
	idxScheme := BDSScheme()
	pd, err := idxScheme.Preprocess(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		fast, err := idxScheme.Answer(pd, q)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := noPre.Answer(nil, core.PadPair(d, q))
		if err != nil {
			t.Fatal(err)
		}
		if fast != slow {
			t.Fatalf("factorizations disagree on query %v", q)
		}
	}
}

func TestBDSFactorizationRoundTrip(t *testing.T) {
	g := graph.Path(5, false)
	x := core.PadPair(g.Encode(), NodePairQuery(1, 3))
	if err := BDSFactorization().Check(x); err != nil {
		t.Fatal(err)
	}
	member, err := BDSProblem().Member(x)
	if err != nil {
		t.Fatal(err)
	}
	if !member {
		t.Fatal("1 is visited before 3 on a path; problem says no")
	}
}

func TestCVPSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	circ := circuit.Generate(circuit.GenConfig{Inputs: 6, Gates: 60, Seed: 4})
	inst := &circuit.Instance{Circuit: circ, Inputs: circuit.RandomInputs(6, 5)}
	d := circuit.EncodeInstance(inst)
	var queries [][]byte
	for i := 0; i < 60; i++ {
		queries = append(queries, GateQuery(rng.Intn(circ.Size())))
	}
	verifyScheme(t, CVPGateValueScheme(), CVPGateLanguage(), d, queries)

	// Theorem 9 scheme: empty data, instance-as-query.
	noPre := CVPNoPreprocessScheme()
	got, err := noPre.Answer(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := inst.Eval()
	if got != want {
		t.Fatal("Υ0 scheme misanswered")
	}
	if _, err := noPre.Preprocess([]byte{1}); err == nil {
		t.Error("Υ0 accepted a non-empty data part")
	}
	// Gate query out of range errors.
	s := CVPGateValueScheme()
	pd, _ := s.Preprocess(d)
	if _, err := s.Answer(pd, GateQuery(circ.Size()+5)); err == nil {
		t.Error("out-of-range gate accepted")
	}
}

func TestTheorem5ChainOnAllSampleMachines(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, cm := range tm.SampleMachines() {
		maxN := 6
		if cm.M.Name == "palindrome" || cm.M.Name == "0n1n" {
			maxN = 4
		}
		// Collect instances across lengths, including both accepting and
		// rejecting inputs.
		var instances [][]byte
		for n := 0; n <= maxN; n++ {
			for k := 0; k < 4; k++ {
				in := make([]bool, n)
				for i := range in {
					in[i] = rng.Intn(2) == 1
				}
				instances = append(instances, EncodeBits(in))
			}
		}
		// Definition 4 verification of the reduction itself.
		red := TMToBDSReduction(cm)
		if err := red.Verify(instances); err != nil {
			t.Fatalf("%s: %v", cm.M.Name, err)
		}
		// Lemma 3 transport: the resulting scheme decides the language.
		scheme := TMSchemeViaBDS(cm)
		lang := core.PairLanguage(red.From, red.F1)
		var pairs []core.Pair
		for _, x := range instances {
			pairs = append(pairs, core.Pair{D: x, Q: x})
		}
		if err := scheme.VerifyAgainst(lang, pairs); err != nil {
			t.Fatalf("%s: transported scheme: %v", cm.M.Name, err)
		}
	}
}

func TestTMProblemRejectsBadBytes(t *testing.T) {
	p := TMProblem(tm.Parity())
	if _, err := p.Member([]byte{0, 1, 7}); err == nil {
		t.Fatal("byte 7 accepted as an input bit")
	}
}

// TestTraversalDeclarations pins which schemes declare that answering walks
// Π(D) — the fact the serving layer places its verdict cache by: exactly the
// two no-preprocessing baselines whose data part is D itself. The ε-data
// schemes (bds/no-preprocessing, cvp/empty-data) are linear in the *query*,
// the same order as hashing a cache key, and do not declare it. The
// constructor list is checked against the package source, so a new scheme
// must be entered here (a scheme that forgets to declare is served
// uncached: correct, never wrong).
func TestTraversalDeclarations(t *testing.T) {
	constructors := map[string]func() *core.Scheme{
		"PointSelectionScheme":     PointSelectionScheme,
		"PointSelectionScanScheme": PointSelectionScanScheme,
		"ListMembershipScheme":     ListMembershipScheme,
		"ReachabilityScheme":       ReachabilityScheme,
		"ReachabilityLabelsScheme": ReachabilityLabelsScheme,
		"ReachabilityBFSScheme":    ReachabilityBFSScheme,
		"BDSScheme":                BDSScheme,
		"BDSNoPreprocessScheme":    BDSNoPreprocessScheme,
		"CVPGateValueScheme":       CVPGateValueScheme,
		"CVPNoPreprocessScheme":    CVPNoPreprocessScheme,
	}
	declaring := map[string]bool{"reachability/bfs-per-query": true, "point-selection/scan": true}
	for fn, mk := range constructors {
		if s := mk(); s.Traversal != declaring[s.Name()] {
			t.Errorf("%s: scheme %q declares Traversal=%v, want %v", fn, s.Name(), s.Traversal, declaring[s.Name()])
		}
	}

	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range pkgs["schemes"].Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Params.NumFields() != 0 ||
				fn.Type.Results.NumFields() != 1 {
				continue
			}
			if star, ok := fn.Type.Results.List[0].Type.(*ast.StarExpr); ok {
				if sel, ok := star.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Scheme" && constructors[fn.Name.Name] == nil {
					t.Errorf("scheme constructor %s is not covered by this test", fn.Name.Name)
				}
			}
		}
	}
}
