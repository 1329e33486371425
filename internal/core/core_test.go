package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// --- toy problems used throughout: byte-sum parity ------------------------

func byteSum(x []byte) int {
	s := 0
	for _, b := range x {
		s += int(b)
	}
	return s
}

// evenPairProblem: instances are pad(d, q); member iff sum(d)+sum(q) even.
func evenPairProblem() *Problem {
	return &Problem{
		ProblemName: "even-pair-sum",
		Member: func(x []byte) (bool, error) {
			d, q, err := UnpadPair(x)
			if err != nil {
				return false, err
			}
			return (byteSum(d)+byteSum(q))%2 == 0, nil
		},
	}
}

// evenProblem: instances are raw strings; member iff byte sum even.
func evenProblem() *Problem {
	return &Problem{
		ProblemName: "even-sum",
		Member:      func(x []byte) (bool, error) { return byteSum(x)%2 == 0, nil },
	}
}

// splitFactorization factors pad(d, q) instances into (d, q).
func splitFactorization() *Factorization {
	return &Factorization{
		FactName: "split",
		Pi1: func(x []byte) ([]byte, error) {
			d, _, err := UnpadPair(x)
			return d, err
		},
		Pi2: func(x []byte) ([]byte, error) {
			_, q, err := UnpadPair(x)
			return q, err
		},
		Rho: func(d, q []byte) ([]byte, error) { return PadPair(d, q), nil },
	}
}

// --- codec -----------------------------------------------------------------

func TestPadUnpadRoundTrip(t *testing.T) {
	f := func(d, q []byte) bool {
		gd, gq, err := UnpadPair(PadPair(d, q))
		return err == nil && bytes.Equal(gd, d) && bytes.Equal(gq, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnpadRejectsCorrupt(t *testing.T) {
	good := PadPair([]byte("abc"), []byte("de"))
	for i, bad := range [][]byte{nil, good[:2], good[:len(good)-1], append(append([]byte{}, good...), 1)} {
		if _, _, err := UnpadPair(bad); err == nil {
			t.Errorf("case %d unpadded", i)
		}
	}
}

func TestEncodeDecodeUint64(t *testing.T) {
	enc := EncodeUint64(3, 0, 1<<40)
	got, err := DecodeUint64(enc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 0 || got[2] != 1<<40 {
		t.Fatalf("DecodeUint64 = %v", got)
	}
	if _, err := DecodeUint64(enc, 2); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := DecodeUint64(enc[:1], 3); err == nil {
		t.Error("truncated input accepted")
	}
}

// --- factorizations ----------------------------------------------------------

func TestFactorizationCheck(t *testing.T) {
	f := splitFactorization()
	if err := f.Check(PadPair([]byte("xy"), []byte("z"))); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	broken := &Factorization{
		FactName: "broken",
		Pi1:      func(x []byte) ([]byte, error) { return x[:0], nil },
		Pi2:      func(x []byte) ([]byte, error) { return x[:0], nil },
		Rho:      func(d, q []byte) ([]byte, error) { return []byte("nope"), nil },
	}
	if err := broken.Check([]byte("abc")); err == nil {
		t.Fatal("broken factorization passed Check")
	}
}

func TestIdentityFactorization(t *testing.T) {
	f := IdentityFactorization()
	if err := f.Check([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Rho([]byte("a"), []byte("b")); err == nil {
		t.Fatal("identity ρ accepted unequal parts")
	}
}

// emptyDataFactorization returns the Theorem 9 factorization Υ0: the data
// part is the empty string and the whole instance is the query part —
// "preprocess nothing". It witnesses the separation of ΠT⁰Q from P: with
// this factorization preprocessing sees only ε, so it cannot help.
func emptyDataFactorization() *Factorization {
	return &Factorization{
		FactName: "empty-data",
		Pi1:      func(x []byte) ([]byte, error) { return nil, nil },
		Pi2:      func(x []byte) ([]byte, error) { return x, nil },
		Rho: func(d, q []byte) ([]byte, error) {
			if len(d) != 0 {
				return nil, fmt.Errorf("core: empty-data factorization got a non-empty data part")
			}
			return q, nil
		},
	}
}

func TestPaddedFactorization(t *testing.T) {
	base := splitFactorization()
	padded := PaddedFactorization(base)
	x := PadPair([]byte("data"), []byte("query"))
	if err := padded.Check(x); err != nil {
		t.Fatal(err)
	}
	d, _ := padded.Pi1(x)
	q, _ := padded.Pi2(x)
	if !bytes.Equal(d, q) {
		t.Fatal("padded parts must be equal")
	}
	if _, err := padded.Rho([]byte("a"), []byte("b")); err == nil {
		t.Fatal("padded ρ accepted unequal parts")
	}
}

// --- Proposition 1: PairLanguage ----------------------------------------------

func TestPairLanguageAgreesWithProblem(t *testing.T) {
	p := evenPairProblem()
	f := splitFactorization()
	s := PairLanguage(p, f)
	if !strings.Contains(s.Name(), p.ProblemName) {
		t.Errorf("language name %q should mention the problem", s.Name())
	}
	fq := func(d, q []byte) bool {
		x := PadPair(d, q)
		want, err1 := p.Member(x)
		got, err2 := s.Contains(d, q)
		return err1 == nil && err2 == nil && got == want
	}
	if err := quick.Check(fq, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- schemes -------------------------------------------------------------------

// paritySumScheme preprocesses d to its parity bit and answers by combining
// with the query's parity: Answer is O(|q|), independent of |d|.
func paritySumScheme() *Scheme {
	return &Scheme{
		SchemeName: "parity-bit",
		Preprocess: func(d []byte) ([]byte, error) {
			return []byte{byte(byteSum(d) % 2)}, nil
		},
		Prepare: ProbeInPlace(func(pd, q []byte) (bool, error) {
			if len(pd) != 1 {
				return false, errFmt("bad preprocessed data")
			}
			return (int(pd[0])+byteSum(q))%2 == 0, nil
		}),
		PreprocessNote: "O(|D|)",
		AnswerNote:     "O(|Q|)",
	}
}

func errFmt(msg string) error { return &schemeErr{msg} }

type schemeErr struct{ msg string }

func (e *schemeErr) Error() string { return e.msg }

func TestSchemeVerifyAgainst(t *testing.T) {
	s := paritySumScheme()
	lang := PairLanguage(evenPairProblem(), splitFactorization())
	pairs := []Pair{
		{D: []byte{2, 2}, Q: []byte{0}},
		{D: []byte{1}, Q: []byte{1}},
		{D: []byte{1}, Q: []byte{0}},
		{D: nil, Q: nil},
		{D: []byte{255}, Q: []byte{1}},
	}
	if err := s.VerifyAgainst(lang, pairs); err != nil {
		t.Fatal(err)
	}
	// A deliberately wrong scheme must be caught.
	wrong := *s
	wrong.Prepare = ProbeInPlace(func(pd, q []byte) (bool, error) { return true, nil })
	if err := wrong.VerifyAgainst(lang, pairs); err == nil {
		t.Fatal("wrong scheme passed verification")
	}
}

// TestSchemeAnswerIsPrepareThenProbe pins the one-shot Answer to the one
// answering procedure: on an accepted Π it is the prepared probe, verdict and
// error alike; on a refused Π it is Prepare's error, unwrapped.
func TestSchemeAnswerIsPrepareThenProbe(t *testing.T) {
	s := &Scheme{
		SchemeName: "test/framed",
		Prepare: func(pd []byte) (Answerer, error) {
			if len(pd) != 1 {
				return nil, fmt.Errorf("framed: %d-byte payload", len(pd))
			}
			return AnswererFunc(func(q []byte) (bool, error) {
				if len(q) == 0 {
					return false, errFmt("empty query")
				}
				return (int(pd[0])+byteSum(q))%2 == 0, nil
			}), nil
		},
	}
	for _, pd := range [][]byte{{0}, {1}, nil, {1, 2}} {
		for _, q := range [][]byte{{0}, {1}, {2, 3}, nil} {
			got, err := s.Answer(pd, q)
			var want bool
			a, wantErr := s.Prepare(pd)
			if wantErr == nil {
				want, wantErr = a.Answer(q)
			}
			if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("pd %v, q %v: Answer = %v, %v; Prepare-then-probe = %v, %v", pd, q, got, err, want, wantErr)
			}
		}
	}
	if _, err := s.Answer([]byte{1, 2, 3}, []byte{1}); err == nil || err.Error() != "framed: 3-byte payload" {
		t.Fatalf("refused Π: Answer error %v, want Prepare's own text", err)
	}
}

// --- reductions -----------------------------------------------------------------

func TestReductionVerify(t *testing.T) {
	// Map the parity pair language to itself by appending even junk.
	s1 := PairLanguage(evenPairProblem(), splitFactorization())
	red := &Reduction{
		RedName: "append-even",
		Alpha:   func(d []byte) ([]byte, error) { return append(append([]byte{}, d...), 2, 2), nil },
		Beta:    func(q []byte) ([]byte, error) { return append(append([]byte{}, q...), 4), nil },
	}
	pairs := []Pair{{D: []byte{1}, Q: []byte{1}}, {D: []byte{1}, Q: []byte{2}}, {D: nil, Q: nil}}
	if err := red.Verify(s1, s1, pairs); err != nil {
		t.Fatal(err)
	}
	// A parity-flipping β must fail verification.
	bad := &Reduction{
		RedName: "flip",
		Alpha:   func(d []byte) ([]byte, error) { return d, nil },
		Beta:    func(q []byte) ([]byte, error) { return append(append([]byte{}, q...), 1), nil },
	}
	if err := bad.Verify(s1, s1, pairs); err == nil {
		t.Fatal("parity-flipping reduction verified")
	}
}

// TestLemma2Composition exercises the padding construction end to end:
// r1: S(L1,split) → S(L2,split) with identity maps (L1 = L2 textually),
// r2: S(L2,padded-split) → S(L3,empty-data),
// and Compose must yield a verified reduction from S(L1, padded-split) to
// S(L3, empty-data), despite the mismatched middle factorizations.
func TestLemma2Composition(t *testing.T) {
	l1 := evenPairProblem()
	l2 := evenPairProblem()
	l3 := evenProblem()
	split := splitFactorization()
	paddedSplit := PaddedFactorization(split)

	r1 := &Reduction{
		RedName: "r1-id",
		Alpha:   func(d []byte) ([]byte, error) { return d, nil },
		Beta:    func(q []byte) ([]byte, error) { return q, nil },
	}
	// r2 source: S(L2, padded-split) = {(y, y) | y ∈ L2}. Target:
	// S(L3, empty-data) = {(ε, x) | sum(x) even}. α2 discards; β2 unpads y
	// and concatenates the halves, so the image's byte sum equals
	// sum(d2)+sum(q2) without the length-prefix bytes of the padding.
	r2 := &Reduction{
		RedName: "r2-project",
		Alpha:   func(d []byte) ([]byte, error) { return nil, nil },
		Beta: func(q []byte) ([]byte, error) {
			d2, q2, err := UnpadPair(q)
			if err != nil {
				return nil, err
			}
			return append(append([]byte{}, d2...), q2...), nil
		},
	}
	// Sanity: verify r1 and r2 in isolation first.
	pairsOf := func(f *Factorization, instances [][]byte) []Pair {
		var out []Pair
		for _, x := range instances {
			d, err := f.Pi1(x)
			if err != nil {
				t.Fatal(err)
			}
			q, err := f.Pi2(x)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, Pair{D: d, Q: q})
		}
		return out
	}
	instances := [][]byte{
		PadPair([]byte{1}, []byte{1}),
		PadPair([]byte{1}, []byte{2}),
		PadPair(nil, nil),
		PadPair([]byte{5, 5}, []byte{3}),
	}
	if err := r1.Verify(PairLanguage(l1, split), PairLanguage(l2, split), pairsOf(split, instances)); err != nil {
		t.Fatalf("r1: %v", err)
	}
	if err := r2.Verify(PairLanguage(l2, paddedSplit), PairLanguage(l3, emptyDataFactorization()),
		pairsOf(paddedSplit, instances)); err != nil {
		// Note: S(L3) queries are padded L2 instances; sum parity of the
		// padding prefix bytes shifts the parity, so β2 must be checked
		// against the real encoder. If this fails the test setup is wrong.
		t.Fatalf("r2: %v", err)
	}

	composed := Compose(r1, split.Rho, paddedSplit, r2)
	fr := &FactorReduction{
		From: l1, To: l3,
		F1:  paddedSplit,
		F2:  emptyDataFactorization(),
		Map: *composed,
	}
	if err := fr.Verify(instances); err != nil {
		t.Fatalf("Lemma 2 composition failed: %v", err)
	}
}

// TestLemma3Transport: tractability flows backwards along reductions.
func TestLemma3Transport(t *testing.T) {
	// Target: L3 = even-sum with the empty-data factorization and a scheme
	// answering by scanning the query.
	targetScheme := &Scheme{
		SchemeName: "even-sum-direct",
		Preprocess: func(d []byte) ([]byte, error) { return d, nil },
		Prepare:    ProbeInPlace(func(pd, q []byte) (bool, error) { return byteSum(q)%2 == 0, nil }),
	}
	// Reduction from S(L1, padded-split) to S(L3, empty-data), as composed
	// in the Lemma 2 test.
	split := splitFactorization()
	paddedSplit := PaddedFactorization(split)
	r1 := &Reduction{RedName: "r1-id",
		Alpha: func(d []byte) ([]byte, error) { return d, nil },
		Beta:  func(q []byte) ([]byte, error) { return q, nil }}
	r2 := &Reduction{RedName: "r2-project",
		Alpha: func(d []byte) ([]byte, error) { return nil, nil },
		Beta: func(q []byte) ([]byte, error) {
			d2, q2, err := UnpadPair(q)
			if err != nil {
				return nil, err
			}
			return append(append([]byte{}, d2...), q2...), nil
		}}
	composed := Compose(r1, split.Rho, paddedSplit, r2)

	transported := TransportScheme(composed, targetScheme)
	lang := PairLanguage(evenPairProblem(), paddedSplit)
	instances := [][]byte{
		PadPair([]byte{1}, []byte{1}),
		PadPair([]byte{1}, []byte{2}),
		PadPair([]byte{7}, nil),
		PadPair(nil, nil),
	}
	var pairs []Pair
	for _, x := range instances {
		d, _ := paddedSplit.Pi1(x)
		q, _ := paddedSplit.Pi2(x)
		pairs = append(pairs, Pair{D: d, Q: q})
	}
	if err := transported.VerifyAgainst(lang, pairs); err != nil {
		t.Fatalf("Lemma 3 transport failed: %v", err)
	}
}

// --- registry ----------------------------------------------------------------

func TestRegistry(t *testing.T) {
	var r Registry
	s := paritySumScheme()
	if err := r.Register(Entry{Name: "a", Class: ClassPiT0Q, Scheme: s}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(Entry{Name: "a", Class: ClassP}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := r.Register(Entry{Name: "b", Class: ClassPiT0Q}); err == nil {
		t.Fatal("ΠT⁰Q claim without scheme accepted")
	}
	if err := r.Register(Entry{Name: "c", Class: ClassNPComplete}); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Entries()); got != 2 {
		t.Fatalf("Entries = %d", got)
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassNC: "NC", ClassPiT0Q: "ΠT⁰Q", ClassPiTQ: "ΠTQ",
		ClassP: "P", ClassNPComplete: "NP-complete", Class(9): "Class(9)",
	} {
		if c.String() != want {
			t.Errorf("Class(%d) = %q", int(c), c.String())
		}
	}
}

// --- growth classification ------------------------------------------------------

func synthetic(f func(n float64) float64) []Measurement {
	var ms []Measurement
	for _, n := range []float64{1 << 7, 1 << 9, 1 << 11, 1 << 13, 1 << 15, 1 << 17, 1 << 19} {
		ms = append(ms, Measurement{N: n, Cost: f(n)})
	}
	return ms
}

func log2(n float64) float64 {
	k := 0.0
	for v := n; v > 1; v /= 2 {
		k++
	}
	return k
}

func TestClassifySyntheticFamilies(t *testing.T) {
	cases := []struct {
		name string
		f    func(float64) float64
		want Growth
	}{
		{"constant", func(n float64) float64 { return 40 }, GrowthConstant},
		{"log", func(n float64) float64 { return log2(n) }, GrowthPolylog},
		{"log²", func(n float64) float64 { return log2(n) * log2(n) }, GrowthPolylog},
		{"linear", func(n float64) float64 { return n }, GrowthPolynomial},
		{"n log n", func(n float64) float64 { return n * log2(n) }, GrowthPolynomial},
		{"quadratic", func(n float64) float64 { return n * n }, GrowthPolynomial},
	}
	for _, c := range cases {
		fit, err := Classify(synthetic(c.f))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if fit.Growth != c.want {
			t.Errorf("%s: classified %v (exponent %.2f), want %v", c.name, fit.Growth, fit.Exponent, c.want)
		}
		if fit.LogLogR2 < 0.9 {
			t.Errorf("%s: R² = %.3f, noisy fit on noiseless data", c.name, fit.LogLogR2)
		}
	}
}

func TestClassifyInputValidation(t *testing.T) {
	if _, err := Classify(nil); err == nil {
		t.Error("empty series accepted")
	}
	if _, err := Classify([]Measurement{{1, 1}, {2, 2}, {3, 3}}); err == nil {
		t.Error("narrow sweep accepted")
	}
	if _, err := Classify([]Measurement{{0, 1}, {8, 2}, {64, 3}}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Classify([]Measurement{{1, -1}, {8, 2}, {64, 3}}); err == nil {
		t.Error("negative cost accepted")
	}
}

func TestGrowthString(t *testing.T) {
	if GrowthConstant.String() == "" || GrowthPolylog.String() == "" ||
		GrowthPolynomial.String() == "" || Growth(9).String() == "" {
		t.Fatal("Growth.String broken")
	}
}
