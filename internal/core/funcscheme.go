package core

import (
	"bytes"
	"fmt"
)

// The paper's §8(3) open issue: "Π-tractability for general queries, as
// well as for search problems and function problems, deserves a full
// treatment." This file supplies the executable side of that treatment:
// function schemes, whose answering step returns a value rather than a
// Boolean. The RMQ and LCA case studies of §4 are naturally *search*
// problems ("Find RMQ_A(i,j)", "Find LCA(u,v)") and are witnessed through
// this interface; the Boolean framework remains the formal anchor, exactly
// as the paper converts search problems to decision problems.

// FuncLanguage is a reference function F: Σ*×Σ* → Σ* mapping a (data,
// query) pair to an answer string — the function-problem analogue of
// Language.
type FuncLanguage interface {
	// Name identifies the function.
	Name() string
	// Eval computes F(d, q).
	Eval(d, q []byte) ([]byte, error)
}

// FuncLanguageFunc adapts a function to FuncLanguage.
type FuncLanguageFunc struct {
	LangName string
	Compute  func(d, q []byte) ([]byte, error)
}

// Name implements FuncLanguage.
func (l FuncLanguageFunc) Name() string { return l.LangName }

// Eval implements FuncLanguage.
func (l FuncLanguageFunc) Eval(d, q []byte) ([]byte, error) { return l.Compute(d, q) }

// FuncScheme witnesses Π-tractability of a function problem: PTIME
// preprocessing plus an NC Apply step computing the answer from Π(D) and Q.
type FuncScheme struct {
	SchemeName string
	// Preprocess is Π(·), run once per database in PTIME.
	Preprocess func(d []byte) ([]byte, error)
	// Apply computes F(D, Q) from ⟨Π(D), Q⟩ within the NC budget.
	Apply func(pd, q []byte) ([]byte, error)
	// PreprocessNote and ApplyNote document the claimed complexities.
	PreprocessNote string
	ApplyNote      string
}

// Name identifies the scheme.
func (s *FuncScheme) Name() string { return s.SchemeName }

// Eval computes one answer end-to-end (preprocessing included).
func (s *FuncScheme) Eval(d, q []byte) ([]byte, error) {
	pd, err := s.Preprocess(d)
	if err != nil {
		return nil, fmt.Errorf("func scheme %s: preprocess: %w", s.SchemeName, err)
	}
	return s.Apply(pd, q)
}

// VerifyAgainst checks the scheme against the reference function on
// concrete pairs, preprocessing once per distinct data part.
func (s *FuncScheme) VerifyAgainst(lang FuncLanguage, pairs []Pair) error {
	cache := map[string][]byte{}
	for i, p := range pairs {
		want, err := lang.Eval(p.D, p.Q)
		if err != nil {
			return fmt.Errorf("func scheme %s: reference %s pair %d: %w", s.SchemeName, lang.Name(), i, err)
		}
		pd, ok := cache[string(p.D)]
		if !ok {
			pd, err = s.Preprocess(p.D)
			if err != nil {
				return fmt.Errorf("func scheme %s: preprocess pair %d: %w", s.SchemeName, i, err)
			}
			cache[string(p.D)] = pd
		}
		got, err := s.Apply(pd, p.Q)
		if err != nil {
			return fmt.Errorf("func scheme %s: apply pair %d: %w", s.SchemeName, i, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("func scheme %s: pair %d: scheme %v, reference %v", s.SchemeName, i, got, want)
		}
	}
	return nil
}

// Decision converts a function scheme into the Boolean scheme deciding
// "F(D, Q) = a" for query pad(Q, a) — the standard search-to-decision
// conversion the paper invokes ("one can write a Boolean query Q to
// determine, given a tuple t, whether t ∈ Q′(D)").
func (s *FuncScheme) Decision() *Scheme {
	return &Scheme{
		SchemeName: s.SchemeName + "/decision",
		Preprocess: s.Preprocess,
		Prepare: ProbeInPlace(func(pd, q []byte) (bool, error) {
			fq, want, err := UnpadPair(q)
			if err != nil {
				return false, err
			}
			got, err := s.Apply(pd, fq)
			if err != nil {
				return false, err
			}
			return bytes.Equal(got, want), nil
		}),
		PreprocessNote: s.PreprocessNote,
		AnswerNote:     s.ApplyNote,
	}
}
