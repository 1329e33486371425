package core

// The prepared-answerer seam — the one answering procedure of the scheme
// contract.
//
// Where Π(D) must be framed, validated or decoded before it can be probed —
// a closure header, a label payload, a whole graph for a search-per-query
// baseline — that work is done once, by the scheme's Prepare, when a store
// is registered, reloaded, or maintained, and the Answerer it returns does
// only the probe: the paper's answering budget covers the probe, not the
// decode. A corrupt Π is refused once, at Prepare. Where Π is laid out for
// probing with nothing to check — a pos file — ProbeInPlace closes the probe
// over pd in O(1) and Π is held once. (*Scheme).Answer is Prepare-then-probe,
// for one-shot callers.

// Answerer is one prepared Π(D), ready to answer queries. Implementations
// must satisfy the concurrency contract (batch.go): Answer is called from
// any number of goroutines at once, must treat q as read-only, and must keep
// per-call state on the stack.
type Answerer interface {
	// Answer decides one query against the prepared store.
	Answer(q []byte) (bool, error)
}

// AnswererFunc adapts a function to Answerer.
type AnswererFunc func(q []byte) (bool, error)

// Answer implements Answerer.
func (f AnswererFunc) Answer(q []byte) (bool, error) { return f(q) }

// ProbeInPlace is the Prepare of a scheme whose Π is probed in its own bytes
// with nothing to frame or validate first: it closes probe over pd — no copy,
// no decode, nothing that can fail.
func ProbeInPlace(probe func(pd, q []byte) (bool, error)) func(pd []byte) (Answerer, error) {
	return func(pd []byte) (Answerer, error) {
		return AnswererFunc(func(q []byte) (bool, error) { return probe(pd, q) }), nil
	}
}

// LayoutError is what a scheme's readers — Prepare, ApplyDelta — return for
// a preprocessed string that is intact but in a layout an earlier version
// wrote and this one no longer reads; its message says to re-register. A
// registry needs no type switch on it: any Π that Prepare refuses — this
// or damage a checksum cannot see — is refused where it would be committed,
// so a snapshot reloaded in an old layout is quarantined and rebuilt from
// the registration's data, as one with an old magic is, rather than served
// as a dataset whose every answer is this refusal.
type LayoutError struct{ Msg string }

func (e *LayoutError) Error() string { return e.Msg }
