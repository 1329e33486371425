package schemes

// Failure injection: answering procedures operate on preprocessed byte
// strings that may arrive truncated or mangled (a disk-backed index with a
// torn write, a mis-framed network transfer). Every Answer/Apply path must
// return an error — never panic, never misanswer silently — on such input.

import (
	"math/rand"
	"testing"

	"pitract/internal/circuit"
	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/relation"
	"pitract/internal/views"
)

// mutations derives corrupt variants of a valid preprocessed string.
func mutations(pd []byte) [][]byte {
	out := [][]byte{nil, {}, pd[:1]}
	if len(pd) > 2 {
		out = append(out, pd[:len(pd)/2], pd[:len(pd)-1])
	}
	grown := append(append([]byte{}, pd...), 0xEE)
	out = append(out, grown)
	if len(pd) >= 8 {
		// Mangle the header so it claims a different size.
		big := append([]byte{}, pd...)
		for i := 0; i < 8; i++ {
			big[i] = 0xFF
		}
		out = append(out, big)
	}
	return out
}

// answerMustNotPanic drives one Answer function over all mutations; errors
// are expected, panics and silent successes that change answers are not.
func answerMustNotPanic(t *testing.T, name string, pd []byte, answer func(pd []byte) (bool, error)) {
	t.Helper()
	for i, bad := range mutations(pd) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: mutation %d (len %d) panicked: %v", name, i, len(bad), r)
				}
			}()
			if _, err := answer(bad); err == nil {
				// A shorter-but-well-formed prefix may legitimately decode
				// (e.g. sorted-key files are any multiple of 8 bytes), so a
				// nil error alone is not a failure; reaching here without
				// panicking is the requirement. Schemes with framed headers
				// are asserted strictly below.
				_ = i
			}
		}()
	}
}

// answerMustError is the strict variant for self-framing layouts.
func answerMustError(t *testing.T, name string, pd []byte, answer func(pd []byte) (bool, error)) {
	t.Helper()
	for i, bad := range mutations(pd) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: mutation %d (len %d) panicked: %v", name, i, len(bad), r)
				}
			}()
			if _, err := answer(bad); err == nil {
				t.Fatalf("%s: mutation %d (len %d) answered without error", name, i, len(bad))
			}
		}()
	}
}

func TestCorruptClosureMatrix(t *testing.T) {
	g := graph.RandomDirected(20, 50, 1)
	s := ReachabilityScheme()
	pd, err := s.Preprocess(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	q := NodePairQuery(1, 2)
	answerMustError(t, "closure", pd, func(b []byte) (bool, error) { return s.Answer(b, q) })

	// One payload per thing the decoder validates: refused by the raw probe of
	// the pair that reads the damage, by Prepare, and by ApplyDelta.
	inc := IncrementalReachability()
	for name, bad := range closureCorruptions(t, pd) {
		if _, err := s.Answer(bad, NodePairQuery(0, 1)); err == nil {
			t.Errorf("%s: raw probe answered", name)
		}
		if _, err := s.Prepare(bad); err == nil {
			t.Errorf("%s: Prepare accepted", name)
		}
		if _, err := inc.ApplyDelta(bad, EdgeDelta(0, 1)); err == nil {
			t.Errorf("%s: ApplyDelta accepted", name)
		}
	}
}

func TestCorruptGateValues(t *testing.T) {
	c := circuit.Generate(circuit.GenConfig{Inputs: 4, Gates: 30, Seed: 2})
	inst := &circuit.Instance{Circuit: c, Inputs: circuit.RandomInputs(4, 3)}
	s := CVPGateValueScheme()
	pd, err := s.Preprocess(circuit.EncodeInstance(inst))
	if err != nil {
		t.Fatal(err)
	}
	q := GateQuery(0)
	answerMustError(t, "gate-values", pd, func(b []byte) (bool, error) { return s.Answer(b, q) })
}

func TestCorruptRMQTable(t *testing.T) {
	s := RMQFuncScheme()
	pd, err := s.Preprocess(EncodeList([]int64{5, 2, 9, 1, 7, 3, 8, 6}))
	if err != nil {
		t.Fatal(err)
	}
	q := RangeQueryIJ(1, 5)
	for i, bad := range mutations(pd) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("rmq mutation %d panicked: %v", i, r)
				}
			}()
			if _, err := s.Apply(bad, q); err == nil {
				t.Fatalf("rmq mutation %d (len %d) applied without error", i, len(bad))
			}
		}()
	}
}

func TestCorruptLCATable(t *testing.T) {
	s := LCAFuncScheme()
	pd, err := s.Preprocess(graph.RandomDAG(10, 20, 1).Encode())
	if err != nil {
		t.Fatal(err)
	}
	q := NodePairQuery(0, 1)
	for i, bad := range mutations(pd) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("lca mutation %d panicked: %v", i, r)
				}
			}()
			if _, err := s.Apply(bad, q); err == nil {
				t.Fatalf("lca mutation %d (len %d) applied without error", i, len(bad))
			}
		}()
	}
}

func TestCorruptViewDirectory(t *testing.T) {
	rel := relation.Generate(relation.GenConfig{Rows: 100, Seed: 1, KeyMax: 100})
	s := ViewRewritingScheme(views.EvenPartition("key", 0, 99, 3))
	pd, err := s.Preprocess(rel.Encode())
	if err != nil {
		t.Fatal(err)
	}
	lq, err := s.Rewrite(PointQuery(10))
	if err != nil {
		t.Fatal(err)
	}
	// A truncation can leave the probed view's segment intact (the
	// directory is self-framing per view), so the general contract is
	// no-panic; header-level damage must error.
	answerMustNotPanic(t, "views", pd, func(b []byte) (bool, error) { return s.Answer(b, lq) })
	for _, bad := range [][]byte{nil, pd[:1], pd[:40]} {
		if _, err := s.Answer(bad, lq); err == nil {
			t.Fatalf("header-damaged directory (len %d) answered without error", len(bad))
		}
	}
}

func TestCorruptSortedKeysAndPosArray(t *testing.T) {
	// These layouts are headerless fixed-width files: any 8/4-multiple
	// prefix is well-formed, so the requirement is only no-panic plus
	// correct range errors for the position array.
	rel := relation.Generate(relation.GenConfig{Rows: 64, Seed: 1, KeyMax: 64})
	sel := PointSelectionScheme()
	pd, err := sel.Preprocess(rel.Encode())
	if err != nil {
		t.Fatal(err)
	}
	answerMustNotPanic(t, "sorted-keys", pd, func(b []byte) (bool, error) {
		return sel.Answer(b, PointQuery(3))
	})

	g := graph.RandomConnectedUndirected(16, 8, 1)
	bdsS := BDSScheme()
	pd2, err := bdsS.Preprocess(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	answerMustNotPanic(t, "pos-array", pd2, func(b []byte) (bool, error) {
		return bdsS.Answer(b, NodePairQuery(10, 12))
	})
	// Truncating below the queried nodes must produce a range error.
	if _, err := bdsS.Answer(pd2[:8], NodePairQuery(10, 12)); err == nil {
		t.Fatal("truncated position array answered an out-of-range node")
	}
}

func TestCorruptDeltasRejected(t *testing.T) {
	incSel := IncrementalPointSelection()
	rel := relation.Generate(relation.GenConfig{Rows: 10, Seed: 1, KeyMax: 10})
	pd, err := incSel.Scheme.Preprocess(rel.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := incSel.ApplyDelta(pd, []byte{0xFF}); err == nil {
		t.Fatal("corrupt delta accepted by sorted-keys maintenance")
	}
	if _, err := incSel.ApplyUpdate(rel.Encode(), []byte{0xFF}); err == nil {
		t.Fatal("corrupt delta accepted by ⊕")
	}
	incReach := IncrementalReachability()
	g := graph.RandomDirected(8, 10, 1)
	pd2, err := incReach.Scheme.Preprocess(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := incReach.ApplyDelta(pd2[:3], EdgeDelta(0, 1)); err == nil {
		t.Fatal("truncated closure accepted by maintenance")
	}
}

func TestCorruptQueriesRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	junk := make([]byte, 3)
	rng.Read(junk)
	rel := relation.Generate(relation.GenConfig{Rows: 10, Seed: 1, KeyMax: 10})
	sel := PointSelectionScheme()
	pd, err := sel.Preprocess(rel.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Answer(pd, junk); err == nil {
		t.Fatal("junk query accepted by point selection")
	}
	if _, err := core.DecodeUint64(junk, 2); err == nil {
		t.Fatal("junk decoded as two uints")
	}
}
