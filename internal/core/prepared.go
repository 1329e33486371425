package core

// The prepared-answerer seam — the hot-path half of the scheme contract.
//
// Scheme.Answer takes the preprocessed string pd on every call. Where pd
// must be framed, validated or decoded before it can be probed — a closure
// header, a label payload, a whole graph for a search-per-query baseline —
// that work would repeat per query, and the paper's answering budget is
// supposed to cover the probe, not the decode. Prepare factors it out: it
// runs once when a store is registered, reloaded, or maintained, and returns
// an Answerer whose Answer(q) does only the probe.
//
// A scheme declares a typed form (PrepareAnswerer) only where that saves
// per-query work. Where Π is laid out for probing with nothing to check — a
// pos file — the raw probe is the prepared one: Prepare closes over pd in O(1)
// and Π is held once. Typed forms are pinned byte-for-byte (verdicts and
// error strings) against the raw Answer by the schemes package's
// differential tests.

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

// Prepare turns pd into an Answerer — the seam the serving layers
// (store.Store, and through it shard.ShardedStore) answer through; every
// scheme has one, so callers never branch on whether a typed form exists.
// Schemes that declare one (PrepareAnswerer != nil) validate and decode pd
// here — so a corrupt preprocessed string errors once, at preparation, with
// the same message the raw path would produce per query — and their Answerer
// probes without re-validating. The rest get the raw Answer closed over pd:
// no copy, no decode, nothing that can fail.
func (s *Scheme) Prepare(pd []byte) (Answerer, error) {
	if s.PrepareAnswerer != nil {
		return s.PrepareAnswerer(pd)
	}
	return AnswererFunc(func(q []byte) (bool, error) { return s.Answer(pd, q) }), nil
}
