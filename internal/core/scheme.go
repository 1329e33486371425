package core

import "fmt"

// Scheme is an executable witness of Π-tractability (Definition 1): a
// PTIME preprocessing function Π and an answering procedure deciding the NC
// language S′ on ⟨Π(D), Q⟩. A language S is Π-tractable when
//
//	⟨D, Q⟩ ∈ S  iff  ⟨Π(D), Q⟩ ∈ S′   and   S′ ∈ NC.
//
// A scheme may also maintain its own Π under updates (ApplyDelta, §1's
// incremental preprocessing); one that does can be served under PATCH.
//
// The complexity annotations are claims; the repository backs them with
// measured growth (see Classify) rather than asserting them blindly.
//
// Schemes obey the concurrency contract documented in batch.go: Preprocess
// runs once, up front; Prepare then reads Π(D) once into an Answerer, whose
// Answer must be safe from any number of goroutines (see AnswerBatch for the
// worker-pool entry point).
type Scheme struct {
	SchemeName string
	// Preprocess is Π(·), run once per database, off-line, in PTIME.
	Preprocess func(d []byte) ([]byte, error)
	// Prepare is the answering procedure: it frames and validates one
	// preprocessed string once and returns an Answerer whose Answer(q)
	// decides ⟨Π(D), Q⟩ ∈ S′ within the NC budget (prepared.go). It must
	// treat pd as read-only. A Π probed in its own bytes with nothing to
	// frame declares ProbeInPlace over its probe.
	Prepare func(pd []byte) (Answerer, error)
	// ApplyDelta is the incremental form (§1 justification (3)): it
	// computes Π(D ⊕ ∆D) from Π(D) and ∆D instead of preprocessing D ⊕ ∆D
	// from scratch, so that
	//
	//	Prepare(ApplyDelta(Π(D), ∆D))  answers as  Prepare(Π(D ⊕ ∆D)).
	//
	// It must treat pd as read-only. Nil when the scheme has none; a
	// dataset of such a scheme refuses every delta.
	ApplyDelta func(pd, delta []byte) ([]byte, error)
	// ApplyUpdate is ⊕ on raw databases, D ⊕ ∆D — the oracle
	// VerifyIncremental holds ApplyDelta to. Set whenever ApplyDelta is.
	ApplyUpdate func(d, delta []byte) ([]byte, error)
	// PreprocessNote and AnswerNote document the claimed complexities,
	// e.g. "O(|D| log |D|)" and "O(log |D|)".
	PreprocessNote string
	AnswerNote     string
	// Traversal declares that a probe's work grows with |D| — a traversal,
	// scan or evaluation per query, the baselines the paper uses to show
	// what Π avoids; the serving layer memoises verdicts only for these.
	// The zero value is an index probe: Π already made the answer cheaper
	// than a cache lookup, so there is nothing left for a memo table to save.
	Traversal bool
}

// Name identifies the scheme.
func (s *Scheme) Name() string { return s.SchemeName }

// Answer decides one query against pd: Prepare, then one probe. It pays a
// Prepare per call — the closure's rows decoded, the labels decoded, a key
// file's samples checked — so anything that answers more than once against
// one Π prepares once and probes the Answerer instead. It is kept for
// one-shot callers. Prepare's error comes back unwrapped, so a refused Π
// reads the same here as at Prepare.
func (s *Scheme) Answer(pd, q []byte) (bool, error) {
	a, err := s.Prepare(pd)
	if err != nil {
		return false, err
	}
	return a.Answer(q)
}

// VerifyAgainst checks Definition 1's equivalence on concrete pairs: for
// every (d, q) supplied, ⟨d,q⟩ ∈ S iff Prepare(Π(d)) answers q true.
// Preprocessing and Prepare run once per distinct data part, mirroring real
// usage.
func (s *Scheme) VerifyAgainst(lang Language, pairs []Pair) error {
	cache := map[string]Answerer{}
	for i, p := range pairs {
		want, err := lang.Contains(p.D, p.Q)
		if err != nil {
			return fmt.Errorf("scheme %s: language %s on pair %d: %w", s.SchemeName, lang.Name(), i, err)
		}
		a, ok := cache[string(p.D)]
		if !ok {
			pd, err := s.Preprocess(p.D)
			if err != nil {
				return fmt.Errorf("scheme %s: preprocess pair %d: %w", s.SchemeName, i, err)
			}
			if a, err = s.Prepare(pd); err != nil {
				return fmt.Errorf("scheme %s: answer pair %d: %w", s.SchemeName, i, err)
			}
			cache[string(p.D)] = a
		}
		got, err := a.Answer(p.Q)
		if err != nil {
			return fmt.Errorf("scheme %s: answer pair %d: %w", s.SchemeName, i, err)
		}
		if got != want {
			return fmt.Errorf("scheme %s: pair %d: scheme says %v, language %s says %v",
				s.SchemeName, i, got, lang.Name(), want)
		}
	}
	return nil
}

// Pair is one ⟨D, Q⟩ instance.
type Pair struct {
	D []byte
	Q []byte
}

// Class places a query class or problem in the paper's Figure 2 landscape.
type Class int

const (
	// ClassNC: answerable in parallel polylog time with no preprocessing
	// at all (NC ⊆ ΠT⁰Q).
	ClassNC Class = iota
	// ClassPiT0Q: Π-tractable with its natural factorization
	// (Definition 1).
	ClassPiT0Q
	// ClassPiTQ: makeable Π-tractable via re-factorization (Definition 3);
	// equals P by Corollary 6.
	ClassPiTQ
	// ClassP: decidable in PTIME; membership in ΠT⁰Q unknown or false.
	ClassP
	// ClassNPComplete: not Π-tractable unless P = NP (Corollary 7).
	ClassNPComplete
)

// String names the class as in the paper.
func (c Class) String() string {
	switch c {
	case ClassNC:
		return "NC"
	case ClassPiT0Q:
		return "ΠT⁰Q"
	case ClassPiTQ:
		return "ΠTQ"
	case ClassP:
		return "P"
	case ClassNPComplete:
		return "NP-complete"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Entry is one row of the Figure 2 landscape: a named query class, its
// paper reference, its class, and (when Π-tractable) its scheme.
type Entry struct {
	Name     string
	PaperRef string
	Class    Class
	Scheme   *Scheme
	Notes    string
}

// Registry collects entries for the landscape experiment (F2).
type Registry struct {
	entries []Entry
}

// Register appends an entry; duplicate names are an error.
func (r *Registry) Register(e Entry) error {
	for _, have := range r.entries {
		if have.Name == e.Name {
			return fmt.Errorf("core: duplicate registry entry %q", e.Name)
		}
	}
	if (e.Class == ClassPiT0Q || e.Class == ClassNC) && e.Scheme == nil {
		return fmt.Errorf("core: entry %q claims %v without a scheme witness", e.Name, e.Class)
	}
	r.entries = append(r.entries, e)
	return nil
}

// Entries returns the registered rows in registration order.
func (r *Registry) Entries() []Entry { return append([]Entry(nil), r.entries...) }
