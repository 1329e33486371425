package core

import "fmt"

// Scheme is an executable witness of Π-tractability (Definition 1): a
// PTIME preprocessing function Π and an answering procedure deciding the NC
// language S′ on ⟨Π(D), Q⟩. A language S is Π-tractable when
//
//	⟨D, Q⟩ ∈ S  iff  ⟨Π(D), Q⟩ ∈ S′   and   S′ ∈ NC.
//
// The complexity annotations are claims; the repository backs them with
// measured growth (see Classify) rather than asserting them blindly.
//
// Schemes obey the concurrency contract documented in batch.go: Preprocess
// runs once, up front; Answer must then be safe from any number of
// goroutines sharing one preprocessed store (see AnswerBatch for the
// worker-pool entry point).
type Scheme struct {
	SchemeName string
	// Preprocess is Π(·), run once per database, off-line, in PTIME.
	Preprocess func(d []byte) ([]byte, error)
	// Answer decides ⟨Π(D), Q⟩ ∈ S′; it must meet the NC budget. It must
	// treat pd and q as read-only and be safe for concurrent use.
	Answer func(pd, q []byte) (bool, error)
	// PrepareAnswerer, when non-nil, decodes one preprocessed string into a
	// typed Answerer whose Answer(q) probes without re-validating or
	// re-decoding pd — the hot-path form the serving layers answer through
	// (see prepared.go and the Prepare method). It must produce verdicts and
	// error strings identical to Answer on the same pd; the schemes package
	// pins that differentially. Declare one only where it saves per-query
	// work; nil means Prepare closes over the raw Answer, which is the right
	// prepared form for a Π laid out for probing.
	PrepareAnswerer func(pd []byte) (Answerer, error)
	// PreprocessNote and AnswerNote document the claimed complexities,
	// e.g. "O(|D| log |D|)" and "O(log |D|)".
	PreprocessNote string
	AnswerNote     string
	// Traversal declares that Answer's work grows with |D| — a traversal,
	// scan or evaluation per query, the baselines the paper uses to show
	// what Π avoids; the serving layer memoises verdicts only for these.
	// The zero value is an index probe: Π already made the answer cheaper
	// than a cache lookup, so there is nothing left for a memo table to save.
	Traversal bool
}

// Name identifies the scheme.
func (s *Scheme) Name() string { return s.SchemeName }

// Decide answers one pair end-to-end (preprocessing included). Production
// use preprocesses once and answers many times; Decide exists for
// correctness checks.
func (s *Scheme) Decide(d, q []byte) (bool, error) {
	pd, err := s.Preprocess(d)
	if err != nil {
		return false, fmt.Errorf("scheme %s: preprocess: %w", s.SchemeName, err)
	}
	return s.Answer(pd, q)
}

// VerifyAgainst checks Definition 1's equivalence on concrete pairs: for
// every (d, q) supplied, ⟨d,q⟩ ∈ S iff Answer(Π(d), q). Preprocessing runs
// once per distinct data part, mirroring real usage.
func (s *Scheme) VerifyAgainst(lang Language, pairs []Pair) error {
	cache := map[string][]byte{}
	for i, p := range pairs {
		want, err := lang.Contains(p.D, p.Q)
		if err != nil {
			return fmt.Errorf("scheme %s: language %s on pair %d: %w", s.SchemeName, lang.Name(), i, err)
		}
		pd, ok := cache[string(p.D)]
		if !ok {
			pd, err = s.Preprocess(p.D)
			if err != nil {
				return fmt.Errorf("scheme %s: preprocess pair %d: %w", s.SchemeName, i, err)
			}
			cache[string(p.D)] = pd
		}
		got, err := s.Answer(pd, p.Q)
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
