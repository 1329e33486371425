package core

import "fmt"

// Language is a decidable language of pairs S ⊆ Σ*×Σ*, the paper's
// representation of a Boolean query class: ⟨D, Q⟩ ∈ S iff Q(D) is true.
// Contains must be a total decision procedure (errors signal malformed
// encodings, not "undecided").
type Language interface {
	// Name identifies the language in registries and reports.
	Name() string
	// Contains decides ⟨d, q⟩ ∈ S.
	Contains(d, q []byte) (bool, error)
}

// LanguageFunc adapts a function to the Language interface.
type LanguageFunc struct {
	LangName string
	Decide   func(d, q []byte) (bool, error)
}

// Name implements Language.
func (l LanguageFunc) Name() string { return l.LangName }

// Contains implements Language.
func (l LanguageFunc) Contains(d, q []byte) (bool, error) { return l.Decide(d, q) }

// Problem is a decision problem L ⊆ Σ*, with a reference (PTIME) membership
// procedure. The paper treats problems and languages interchangeably; here
// the distinction is explicit so factorizations have something to factor.
type Problem struct {
	ProblemName string
	// Member decides x ∈ L.
	Member func(x []byte) (bool, error)
}

// Name identifies the problem.
func (p *Problem) Name() string { return p.ProblemName }

// Factorization is the paper's Υ = (π1, π2, ρ): three (NC-computable)
// functions splitting an instance into a data part and a query part, with ρ
// restoring the instance. Check enforces ρ(π1(x), π2(x)) = x, the defining
// equation, on concrete instances.
type Factorization struct {
	FactName string
	Pi1      func(x []byte) ([]byte, error)
	Pi2      func(x []byte) ([]byte, error)
	Rho      func(d, q []byte) ([]byte, error)
}

// Name identifies the factorization.
func (f *Factorization) Name() string { return f.FactName }

// Check verifies the defining equation ρ(π1(x), π2(x)) = x on one instance.
func (f *Factorization) Check(x []byte) error {
	d, err := f.Pi1(x)
	if err != nil {
		return fmt.Errorf("factorization %s: π1: %w", f.FactName, err)
	}
	q, err := f.Pi2(x)
	if err != nil {
		return fmt.Errorf("factorization %s: π2: %w", f.FactName, err)
	}
	back, err := f.Rho(d, q)
	if err != nil {
		return fmt.Errorf("factorization %s: ρ: %w", f.FactName, err)
	}
	if string(back) != string(x) {
		return fmt.Errorf("factorization %s: ρ(π1(x),π2(x)) ≠ x", f.FactName)
	}
	return nil
}

// PairLanguage builds the language of pairs S(L,Υ) = {⟨π1(x), π2(x)⟩ | x ∈ L}
// for a problem and one of its factorizations: membership of ⟨d, q⟩ is
// decided by restoring the instance with ρ and asking the problem — exactly
// Proposition 1 ("x ∈ L iff ⟨π1(x), π2(x)⟩ ∈ S(L,Υ)") read right-to-left.
func PairLanguage(p *Problem, f *Factorization) Language {
	return LanguageFunc{
		LangName: p.ProblemName + "/" + f.FactName,
		Decide: func(d, q []byte) (bool, error) {
			x, err := f.Rho(d, q)
			if err != nil {
				return false, err
			}
			return p.Member(x)
		},
	}
}

// IdentityFactorization returns the factorization used in the proof of
// Theorem 5: π1(x) = π2(x) = x and ρ(x, x) = x. Every problem trivially
// admits it; it leaves all the work to the query side.
func IdentityFactorization() *Factorization {
	return &Factorization{
		FactName: "identity",
		Pi1:      func(x []byte) ([]byte, error) { return x, nil },
		Pi2:      func(x []byte) ([]byte, error) { return x, nil },
		Rho: func(d, q []byte) ([]byte, error) {
			if string(d) != string(q) {
				return nil, fmt.Errorf("core: identity factorization requires d = q")
			}
			return d, nil
		},
	}
}

// PaddedFactorization builds Υ′ from Υ as in the proof of Lemma 2:
// σ1(x) = σ2(x) = π1(x)@π2(x) and ρ′(y, y) = ρ(unpad(y)). Both parts carry
// the whole pair, which is what lets two reductions with mismatched middle
// factorizations compose.
func PaddedFactorization(f *Factorization) *Factorization {
	pad := func(x []byte) ([]byte, error) {
		d, err := f.Pi1(x)
		if err != nil {
			return nil, err
		}
		q, err := f.Pi2(x)
		if err != nil {
			return nil, err
		}
		return PadPair(d, q), nil
	}
	return &Factorization{
		FactName: f.FactName + "+padded",
		Pi1:      pad,
		Pi2:      pad,
		Rho: func(d, q []byte) ([]byte, error) {
			if string(d) != string(q) {
				return nil, fmt.Errorf("core: padded factorization requires equal parts")
			}
			pd, pq, err := UnpadPair(d)
			if err != nil {
				return nil, err
			}
			return f.Rho(pd, pq)
		},
	}
}
