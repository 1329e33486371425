package core

import (
	"bytes"
)

// The paper's §8(3) open issue: "Π-tractability for general queries, as
// well as for search problems and function problems, deserves a full
// treatment." This file supplies the executable side of that treatment:
// function schemes, whose answering step returns a value rather than a
// Boolean. The RMQ and LCA case studies of §4 are naturally *search*
// problems ("Find RMQ_A(i,j)", "Find LCA(u,v)") and are witnessed through
// this interface; the Boolean framework remains the formal anchor, exactly
// as the paper converts search problems to decision problems.

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
