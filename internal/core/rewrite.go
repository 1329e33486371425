package core

// The remark below Definition 1: "One may consider a more general setting
// by incorporating a query rewriting function λ: Q → Q′, and revise
// Definition 1 such that (1) ⟨D,Q⟩ ∈ S iff ⟨Π(D), λ(Q)⟩ ∈ S′, and (2) S′
// is in NC. Then as long as λ(·) is a PTIME computable function, it is
// still feasible to answer queries of Q on big data." RewritingScheme is
// that revision, executable. Query answering using views (§4(6)) is its
// natural client: λ rewrites a query over D into a query over V(D).
type RewritingScheme struct {
	SchemeName string
	// Preprocess is Π(·): PTIME, once per database.
	Preprocess func(d []byte) ([]byte, error)
	// Rewrite is λ(·): PTIME, once per query.
	Rewrite func(q []byte) ([]byte, error)
	// Answer decides ⟨Π(D), λ(Q)⟩ ∈ S′ within the NC budget.
	Answer func(pd, lq []byte) (bool, error)
	// Notes document the claimed complexities.
	PreprocessNote string
	RewriteNote    string
	AnswerNote     string
}

// Name identifies the scheme.
func (s *RewritingScheme) Name() string { return s.SchemeName }

// Plain flattens the rewriting scheme into an ordinary Scheme by folding λ
// into the answering step; correct as long as λ itself fits the answering
// budget (for per-query O(log) rewrites it does).
func (s *RewritingScheme) Plain() *Scheme {
	return &Scheme{
		SchemeName: s.SchemeName + "/flattened",
		Preprocess: s.Preprocess,
		Prepare: ProbeInPlace(func(pd, q []byte) (bool, error) {
			lq, err := s.Rewrite(q)
			if err != nil {
				return false, err
			}
			return s.Answer(pd, lq)
		}),
		PreprocessNote: s.PreprocessNote,
		AnswerNote:     s.AnswerNote + " after λ",
	}
}
