package core

import "fmt"

// Incremental preprocessing, from the paper's §1 justification (3): "After
// a database D is preprocessed and yields D′, D may be updated by ∆D. It
// may be too costly to preprocess D ⊕ ∆D again starting from scratch.
// Instead, we assume incremental preprocessing ... by computing ∆D′ such
// that the outcome of processing D ⊕ ∆D is the same as D′ ⊕ ∆D′."
//
// IncrementalScheme extends a Scheme with ApplyDelta and an update
// composition ⊕ on raw databases, so the defining equation
//
//	ApplyDelta(Π(D), ∆D)  ≡  Π(D ⊕ ∆D)
//
// can be checked on concrete data. Equivalence is answer-equivalence: the
// two preprocessed strings must answer every probed query identically
// (byte equality is not required — index internals may differ).
type IncrementalScheme struct {
	// Scheme is the underlying Π-tractability witness.
	Scheme *Scheme
	// ApplyDelta maintains the preprocessed structure under an update.
	ApplyDelta func(pd, delta []byte) ([]byte, error)
	// ApplyUpdate computes D ⊕ ∆D on raw databases (the semantics of ⊕).
	ApplyUpdate func(d, delta []byte) ([]byte, error)
	// DeltaNote documents the claimed maintenance complexity.
	DeltaNote string
}

// Name identifies the scheme.
func (s *IncrementalScheme) Name() string { return s.Scheme.SchemeName + "+incremental" }

// VerifyIncremental checks the defining equation on one database, a
// sequence of updates, and a probe set: after every update, the maintained
// structure must answer all probes exactly like a from-scratch
// re-preprocessing of the updated database. Both are prepared once per
// step, then probed.
func (s *IncrementalScheme) VerifyIncremental(d []byte, deltas [][]byte, probes [][]byte) error {
	pd, err := s.Scheme.Preprocess(d)
	if err != nil {
		return fmt.Errorf("incremental %s: initial preprocess: %w", s.Name(), err)
	}
	cur := d
	for step, delta := range deltas {
		pd, err = s.ApplyDelta(pd, delta)
		if err != nil {
			return fmt.Errorf("incremental %s: delta %d: %w", s.Name(), step, err)
		}
		cur, err = s.ApplyUpdate(cur, delta)
		if err != nil {
			return fmt.Errorf("incremental %s: ⊕ at step %d: %w", s.Name(), step, err)
		}
		fresh, err := s.Scheme.Preprocess(cur)
		if err != nil {
			return fmt.Errorf("incremental %s: fresh preprocess at step %d: %w", s.Name(), step, err)
		}
		maintained, err := s.Scheme.Prepare(pd)
		if err != nil {
			return fmt.Errorf("incremental %s: maintained prepare step %d: %w", s.Name(), step, err)
		}
		rebuilt, err := s.Scheme.Prepare(fresh)
		if err != nil {
			return fmt.Errorf("incremental %s: fresh prepare step %d: %w", s.Name(), step, err)
		}
		for pi, q := range probes {
			a, err := maintained.Answer(q)
			if err != nil {
				return fmt.Errorf("incremental %s: maintained answer step %d probe %d: %w", s.Name(), step, pi, err)
			}
			b, err := rebuilt.Answer(q)
			if err != nil {
				return fmt.Errorf("incremental %s: fresh answer step %d probe %d: %w", s.Name(), step, pi, err)
			}
			if a != b {
				return fmt.Errorf("incremental %s: step %d probe %d: maintained %v, fresh %v",
					s.Name(), step, pi, a, b)
			}
		}
	}
	return nil
}
