package schemes

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/relation"
	"pitract/internal/views"
)

func TestRMQFuncScheme(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scheme := RMQFuncScheme()
	lang := RMQFuncLanguage()
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(300)
		a := make([]int64, n)
		for i := range a {
			a[i] = rng.Int63n(32) - 16 // negatives and ties
		}
		d := EncodeList(a)
		var pairs []core.Pair
		for q := 0; q < 40; q++ {
			i := rng.Intn(n)
			j := i + rng.Intn(n-i)
			pairs = append(pairs, core.Pair{D: d, Q: RangeQueryIJ(i, j)})
		}
		if err := scheme.VerifyAgainst(lang, pairs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	// Bad queries error.
	d := EncodeList([]int64{1, 2, 3})
	pd, err := scheme.Preprocess(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scheme.Apply(pd, RangeQueryIJ(2, 1)); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := scheme.Apply(pd, RangeQueryIJ(0, 5)); err == nil {
		t.Error("out-of-range accepted")
	}
	if _, err := scheme.Preprocess(EncodeList(nil)); err == nil {
		t.Error("empty array accepted")
	}
}

func TestRMQFuncSchemeDecisionForm(t *testing.T) {
	// The search-to-decision conversion: "is position p the RMQ answer?"
	a := []int64{5, 1, 3, 1}
	d := EncodeList(a)
	dec := RMQFuncScheme().Decision()
	pd, err := dec.Preprocess(d)
	if err != nil {
		t.Fatal(err)
	}
	yes, err := dec.Answer(pd, core.PadPair(RangeQueryIJ(0, 3), core.EncodeUint64(1)))
	if err != nil {
		t.Fatal(err)
	}
	no, err := dec.Answer(pd, core.PadPair(RangeQueryIJ(0, 3), core.EncodeUint64(3)))
	if err != nil {
		t.Fatal(err)
	}
	if !yes || no {
		t.Fatalf("decision form: yes=%v no=%v", yes, no)
	}
}

func TestLCAFuncScheme(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scheme := LCAFuncScheme()
	lang := LCAFuncLanguage()
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(25)
		g := graph.RandomDAG(n, 3*n, int64(trial))
		d := g.Encode()
		var pairs []core.Pair
		for q := 0; q < 30; q++ {
			pairs = append(pairs, core.Pair{D: d, Q: NodePairQuery(rng.Intn(n), rng.Intn(n))})
		}
		if err := scheme.VerifyAgainst(lang, pairs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	// Cyclic graphs are rejected at preprocessing.
	cyc := graph.New(2, true)
	cyc.MustAddEdge(0, 1)
	cyc.MustAddEdge(1, 0)
	if _, err := scheme.Preprocess(cyc.Encode()); err == nil {
		t.Error("cyclic graph accepted")
	}
	// Out-of-range queries error.
	g := graph.Path(3, true)
	pd, err := scheme.Preprocess(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scheme.Apply(pd, NodePairQuery(0, 9)); err == nil {
		t.Error("out-of-range LCA query accepted")
	}
}

func TestViewRewritingScheme(t *testing.T) {
	rel := relation.Generate(relation.GenConfig{Rows: 800, Seed: 9, KeyMax: 1000})
	d := rel.Encode()
	defs := views.EvenPartition("key", 0, 999, 5)
	scheme := ViewRewritingScheme(defs)
	lang := SelectionLanguage()
	rng := rand.New(rand.NewSource(10))
	var pairs []core.Pair
	for q := 0; q < 120; q++ {
		pairs = append(pairs, core.Pair{D: d, Q: PointQuery(rng.Int63n(1000))})
	}
	if err := scheme.VerifyAgainst(lang, pairs); err != nil {
		t.Fatal(err)
	}
	// The flattened form behaves identically.
	flat := scheme.Plain()
	if err := flat.VerifyAgainst(lang, pairs); err != nil {
		t.Fatal(err)
	}
	// Uncovered queries fail at λ — the paper's "answerable using views"
	// precondition.
	if _, err := scheme.Rewrite(PointQuery(5000)); err == nil {
		t.Error("uncovered query rewritten")
	}
	// End-to-end Decide.
	got, err := scheme.Decide(d, PointQuery(500))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := lang.Contains(d, PointQuery(500))
	if got != want {
		t.Fatal("Decide disagrees with language")
	}
}

func TestIncrementalPointSelection(t *testing.T) {
	rel := relation.Generate(relation.GenConfig{Rows: 300, Seed: 2, KeyMax: 400})
	d := rel.Encode()
	inc := IncrementalPointSelection()
	rng := rand.New(rand.NewSource(3))
	var deltas [][]byte
	for step := 0; step < 5; step++ {
		batch := make([]int64, 1+rng.Intn(8))
		for i := range batch {
			batch[i] = rng.Int63n(600)
		}
		deltas = append(deltas, KeysDelta(batch))
	}
	var probes [][]byte
	for q := 0; q < 60; q++ {
		probes = append(probes, PointQuery(rng.Int63n(700)))
	}
	if err := inc.VerifyIncremental(d, deltas, probes); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalReachability(t *testing.T) {
	g := graph.RandomDirected(40, 60, 4)
	d := g.Encode()
	inc := IncrementalReachability()
	rng := rand.New(rand.NewSource(5))
	var deltas [][]byte
	used := map[[2]int]bool{}
	for len(deltas) < 10 {
		u, v := rng.Intn(40), rng.Intn(40)
		if u == v || used[[2]int{u, v}] {
			continue
		}
		used[[2]int{u, v}] = true
		deltas = append(deltas, EdgeDelta(u, v))
	}
	var probes [][]byte
	for q := 0; q < 100; q++ {
		probes = append(probes, NodePairQuery(rng.Intn(40), rng.Intn(40)))
	}
	if err := inc.VerifyIncremental(d, deltas, probes); err != nil {
		t.Fatal(err)
	}
	// Cycle-creating insertions are the hard case; force some.
	gp := graph.Path(6, true)
	var smallProbes [][]byte
	for u := 0; u < 6; u++ {
		for v := 0; v < 6; v++ {
			smallProbes = append(smallProbes, NodePairQuery(u, v))
		}
	}
	if err := inc.VerifyIncremental(gp.Encode(),
		[][]byte{EdgeDelta(5, 0), EdgeDelta(3, 1)},
		smallProbes); err != nil {
		t.Fatal(err)
	}
	// Bad deltas error.
	pd, err := inc.Scheme.Preprocess(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.ApplyDelta(pd, EdgeDelta(0, 0)); err == nil {
		t.Error("self-loop delta accepted")
	}
	if _, err := inc.ApplyDelta(pd, EdgeDelta(0, 99)); err == nil {
		t.Error("out-of-range delta accepted")
	}
}

func TestIncrementalRedundantEdgeNoChange(t *testing.T) {
	g := graph.Path(4, true) // 0→1→2→3
	inc := IncrementalReachability()
	pd, err := inc.Scheme.Preprocess(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	// (0,2) is already implied by the closure, but it is a new *edge*: the
	// matrix must not change while the graph appendix gains it — exactly
	// what a fresh rebuild of the updated data produces.
	out, err := inc.ApplyDelta(pd, EdgeDelta(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	bitLen := 8 + (4*4+7)/8
	if string(out[:bitLen]) != string(pd[:bitLen]) {
		t.Fatal("redundant edge changed the closure matrix")
	}
	d2, err := inc.ApplyUpdate(g.Encode(), EdgeDelta(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := inc.Scheme.Preprocess(d2)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(fresh) {
		t.Fatal("maintained Π diverges from rebuilt Π after redundant edge")
	}
	// A redundant edge that is also already *present* changes nothing at
	// all: the rebuild's Normalize would dedup it anyway.
	same, err := inc.ApplyDelta(out, EdgeDelta(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if string(same) != string(out) {
		t.Fatal("re-inserting a present edge changed the closure bytes")
	}
}

// TestKeysDeltaSortIsNotQuadratic pins the cost of one large key delta: the
// client's keys arrive in any order — here descending, an insertion sort's
// worst case — and sorting them runs under the dataset's maintenance mutex,
// so it must be O(|∆D| log |∆D|). 2¹⁷ fresh keys in, then the same 2¹⁷ out,
// each inside 2 s, and the maintained Π byte-equal to a rebuild both times.
func TestKeysDeltaSortIsNotQuadratic(t *testing.T) {
	const n = 1 << 17
	base := make([]int64, 1000)
	for i := range base {
		base[i] = int64(2 * i)
	}
	fresh := make([]int64, n)
	for i := range fresh {
		fresh[i] = int64(2*(n-i) + 1) // descending, disjoint from base
	}
	for _, tc := range []struct {
		inc *core.IncrementalScheme
		d   []byte
	}{
		{IncrementalPointSelection(), RelationFromKeys(base)},
		{IncrementalRangeSelection(), RelationFromKeys(base)},
		{IncrementalListMembership(), EncodeList(base)},
	} {
		inc, d := tc.inc, tc.d
		t.Run(inc.Name(), func(t *testing.T) {
			pd, err := inc.Scheme.Preprocess(d)
			if err != nil {
				t.Fatal(err)
			}
			for _, delta := range [][]byte{KeysDelta(fresh), KeysDeleteDelta(fresh)} {
				start := time.Now()
				pd, err = inc.ApplyDelta(pd, delta)
				if took := time.Since(start); err != nil || took > 2*time.Second {
					t.Fatalf("a %d-key descending delta applied in %v (err %v), want under 2s", n, took, err)
				}
				if d, err = inc.ApplyUpdate(d, delta); err != nil {
					t.Fatal(err)
				}
				rebuilt, err := inc.Scheme.Preprocess(d)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(pd, rebuilt) {
					t.Fatalf("maintained Π (%d bytes) differs from Preprocess of the updated data (%d bytes)", len(pd), len(rebuilt))
				}
			}
		})
	}
}
