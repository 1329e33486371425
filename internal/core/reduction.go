package core

import "fmt"

// Reduction is a pair of (NC-computable) maps (α, β) between languages of
// pairs:
//
//	⟨D, Q⟩ ∈ S1  iff  ⟨α(D), β(Q)⟩ ∈ S2.
//
// Used with fixed factorizations it is an F-reduction ≤NC_F (Definition 7);
// used together with a choice of factorizations on both sides it is the
// data/query half of an NC-factor reduction ≤NC_fa (Definition 4). The
// factorization bookkeeping lives in FactorReduction below.
type Reduction struct {
	RedName string
	Alpha   func(d []byte) ([]byte, error)
	Beta    func(q []byte) ([]byte, error)
}

// Name identifies the reduction.
func (r *Reduction) Name() string { return r.RedName }

// Apply maps one pair.
func (r *Reduction) Apply(p Pair) (Pair, error) {
	ad, err := r.Alpha(p.D)
	if err != nil {
		return Pair{}, fmt.Errorf("reduction %s: α: %w", r.RedName, err)
	}
	bq, err := r.Beta(p.Q)
	if err != nil {
		return Pair{}, fmt.Errorf("reduction %s: β: %w", r.RedName, err)
	}
	return Pair{D: ad, Q: bq}, nil
}

// Verify checks the defining equivalence on concrete pairs: for every
// supplied (d, q), ⟨d,q⟩ ∈ s1 iff ⟨α(d),β(q)⟩ ∈ s2.
func (r *Reduction) Verify(s1, s2 Language, pairs []Pair) error {
	for i, p := range pairs {
		want, err := s1.Contains(p.D, p.Q)
		if err != nil {
			return fmt.Errorf("reduction %s: source language pair %d: %w", r.RedName, i, err)
		}
		img, err := r.Apply(p)
		if err != nil {
			return err
		}
		got, err := s2.Contains(img.D, img.Q)
		if err != nil {
			return fmt.Errorf("reduction %s: target language pair %d: %w", r.RedName, i, err)
		}
		if got != want {
			return fmt.Errorf("reduction %s: pair %d: source %v, image %v", r.RedName, i, want, got)
		}
	}
	return nil
}

// FactorReduction packages a full NC-factor reduction L1 ≤NC_fa L2
// (Definition 4): factorizations of both problems plus the (α, β) maps
// relating S(L1,Υ1) to S(L2,Υ2).
type FactorReduction struct {
	From, To *Problem
	F1, F2   *Factorization
	Map      Reduction
}

// Verify checks Definition 4 on concrete instances of L1: factor each
// instance with Υ1, map with (α, β), and compare membership of the image
// pair in S(L2,Υ2) against membership of the instance in L1.
func (fr *FactorReduction) Verify(instances [][]byte) error {
	s1 := PairLanguage(fr.From, fr.F1)
	s2 := PairLanguage(fr.To, fr.F2)
	for i, x := range instances {
		if err := fr.F1.Check(x); err != nil {
			return fmt.Errorf("factor reduction: instance %d: %w", i, err)
		}
		d, _ := fr.F1.Pi1(x)
		q, _ := fr.F1.Pi2(x)
		if err := fr.Map.Verify(s1, s2, []Pair{{D: d, Q: q}}); err != nil {
			return fmt.Errorf("factor reduction: instance %d: %w", i, err)
		}
	}
	return nil
}

// TransportScheme implements Lemma 3 (and its query-class analogue,
// Corollary 4 / Lemma 8): given L1 ≤ L2 via (α, β) and a Π-tractability
// scheme for the target language, construct a scheme for the source:
//
//	Π′(D)       = Π(α(D))           (PTIME ∘ NC ⊆ PTIME)
//	Answer′(p,q) = Answer(p, β(q))  (NC ∘ NC ⊆ NC)
//
// The target's Answerer is prepared once per Π and β runs per query.
//
// This is the constructive content of "≤NC_fa is compatible with ΠTP":
// tractability flows backwards along reductions.
func TransportScheme(red *Reduction, target *Scheme) *Scheme {
	return &Scheme{
		SchemeName: target.SchemeName + "∘" + red.RedName,
		Preprocess: func(d []byte) ([]byte, error) {
			ad, err := red.Alpha(d)
			if err != nil {
				return nil, err
			}
			return target.Preprocess(ad)
		},
		Prepare: func(pd []byte) (Answerer, error) {
			a, err := target.Prepare(pd)
			if err != nil {
				return nil, err
			}
			return AnswererFunc(func(q []byte) (bool, error) {
				bq, err := red.Beta(q)
				if err != nil {
					return false, err
				}
				return a.Answer(bq)
			}), nil
		},
		PreprocessNote: target.PreprocessNote + " after α",
		AnswerNote:     target.AnswerNote + " after β",
	}
}

// Compose implements the Lemma 2 padding construction. Given
//
//	r1: S(L1,Υ1) → S(L2,Υ2)   and   r2: S(L2,Υ2′) → S(L3,Υ3)
//
// with possibly different middle factorizations, it returns a reduction
// from the *padded* factorization of L1 (see PaddedFactorization) to
// S(L3,Υ3):
//
//	α(D1) = α2(σ1(ρ2(α1(d), β1(q))))   where D1 = d@q
//	β(Q1) = β2(σ2(ρ2(α1(d), β1(q))))   where Q1 = d@q
//
// rho2 restores an L2 instance from its Υ2 parts; sigma2 is Υ2′. The
// composed source factorization is PaddedFactorization(f1); callers verify
// the result with FactorReduction.Verify, which is what the Lemma 2 tests
// do.
func Compose(r1 *Reduction, rho2 func(d, q []byte) ([]byte, error),
	sigma2 *Factorization, r2 *Reduction) *Reduction {
	through := func(padded []byte) ([]byte, []byte, error) {
		d, q, err := UnpadPair(padded)
		if err != nil {
			return nil, nil, err
		}
		ad, err := r1.Alpha(d)
		if err != nil {
			return nil, nil, err
		}
		bq, err := r1.Beta(q)
		if err != nil {
			return nil, nil, err
		}
		y, err := rho2(ad, bq)
		if err != nil {
			return nil, nil, err
		}
		d2, err := sigma2.Pi1(y)
		if err != nil {
			return nil, nil, err
		}
		q2, err := sigma2.Pi2(y)
		if err != nil {
			return nil, nil, err
		}
		return d2, q2, nil
	}
	return &Reduction{
		RedName: r1.RedName + ";" + r2.RedName,
		Alpha: func(padded []byte) ([]byte, error) {
			d2, _, err := through(padded)
			if err != nil {
				return nil, err
			}
			return r2.Alpha(d2)
		},
		Beta: func(padded []byte) ([]byte, error) {
			_, q2, err := through(padded)
			if err != nil {
				return nil, err
			}
			return r2.Beta(q2)
		},
	}
}
