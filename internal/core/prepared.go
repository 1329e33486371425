package core

// The prepared-answerer seam — the hot-path half of the scheme contract.
//
// Scheme.Answer takes the preprocessed string pd on every call, which forces
// each call to re-locate (and re-validate) the structure inside pd: parse the
// closure header, re-derive the element count of a sorted file, or — worst —
// re-decode an entire graph for a search-per-query baseline. That is fine for
// one-shot correctness checks, but a serving system answers millions of
// queries against one Π(D), and the paper's answering budget is supposed to
// cover the probe, not the decode.
//
// Prepare factors the per-Π work out: it runs once when a store is
// registered, reloaded, or maintained, decoding pd into a typed in-memory
// Answerer whose Answer(q) does only the probe. The raw Answer path is kept
// unchanged as the differential oracle — prepared answerers are pinned
// byte-for-byte (verdicts and error strings) against it by the schemes
// package's differential tests.

// Answerer is one prepared Π(D), ready to answer queries. Implementations
// must satisfy the same concurrency contract as Scheme.Answer (batch.go):
// Answer is called from any number of goroutines at once, must treat q as
// read-only, and must keep per-call state on the stack.
type Answerer interface {
	// Answer decides one query against the prepared store.
	Answer(q []byte) (bool, error)
}

// AnswererFunc adapts a function to Answerer.
type AnswererFunc func(q []byte) (bool, error)

// Answer implements Answerer.
func (f AnswererFunc) Answer(q []byte) (bool, error) { return f(q) }

// LayoutError is what a scheme's readers — Answer, Prepare, ApplyDelta —
// return for a preprocessed string that is intact but in a layout an earlier
// version wrote and this one no longer reads. The serving layer tells it from
// damage and from a bad query: a store that reloads such a Π from disk
// quarantines the file and rebuilds from the registration's data, as it does
// for a snapshot with an old magic, rather than serve a dataset whose every
// answer is this refusal.
type LayoutError struct{ Msg string }

func (e *LayoutError) Error() string { return e.Msg }

// Prepare decodes pd once into an Answerer — the seam the serving layers
// (store.Store, and through it shard.ShardedStore) answer through; every
// scheme has one, so callers never branch on whether a prepared form
// exists. Schemes with a typed prepared form (PrepareAnswerer != nil)
// validate and decode pd here — so a corrupt preprocessed string errors
// once, at preparation, with the same message the raw path would produce
// per query — and their Answerer probes without re-validating. Schemes without one fall back to an adapter that closes
// over pd and calls the raw Answer, so the prepared path is never slower
// than the raw path, only equal or faster.
func (s *Scheme) Prepare(pd []byte) (Answerer, error) {
	if s.PrepareAnswerer != nil {
		return s.PrepareAnswerer(pd)
	}
	return AnswererFunc(func(q []byte) (bool, error) { return s.Answer(pd, q) }), nil
}
