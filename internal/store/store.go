package store

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"pitract/internal/core"
	"pitract/internal/obs"
)

// Layout is how a dataset's Π is laid out over its members, and all that a
// partitioned dataset adds to a plain one: where a delta goes, what a query
// answers through, and what the file's layout field holds. Plain is the
// one-member layout; internal/shard's ShardedStore is the partitioned one.
// The hooks run at build, load and Stage, where no query waits — never per
// query.
type Layout interface {
	// Open builds the view every query answers through from a persisted
	// summary and the members' prepared answerers, refusing a member count
	// or a summary the layout does not hold.
	Open(summary []byte, members []core.Answerer) (core.Answerer, error)
	// Route maps one delta to the members it lands on: member index → the
	// local deltas for that member's Π, in application order, each in the
	// scheme's own delta encoding. view is the committed view as of the start
	// of the batch; a refusal applies nothing.
	Route(delta []byte, view core.Answerer) (map[int][][]byte, error)
	// Carry returns the next summary and view once a batch's local deltas are
	// applied and the touched members prepared (members). It starts from the
	// committed summary and view and must not modify them: queries are
	// reading them.
	Carry(summary []byte, view core.Answerer, deltas [][]byte, members []core.Answerer) ([]byte, core.Answerer, error)
	// Merge is the stage a call through the view is timed under, once per
	// Ask or AskBatch — never per probe — or nil for a view that is not timed.
	Merge() *obs.Histogram
	// Encode renders the layout's own bytes — the file's layout field, which a
	// registration's LayoutDecoder reads back.
	Encode() []byte
	// Describe names the layout where a registration asks for another one.
	Describe() string
}

// Plain is the one-member layout: every delta goes to member 0, there is no
// summary, the view is member 0's answerer (so a query is one probe of the
// scheme's prepared form), and the layout field is empty.
var Plain Layout = plain{}

type plain struct{}

func (plain) Open(summary []byte, members []core.Answerer) (core.Answerer, error) {
	if len(members) != 1 || len(summary) != 0 {
		return nil, fmt.Errorf("store: %d members and a %d-byte summary in the plain layout, want one and none", len(members), len(summary))
	}
	return members[0], nil
}

func (plain) Route(delta []byte, _ core.Answerer) (map[int][][]byte, error) {
	return map[int][][]byte{0: {delta}}, nil
}

func (plain) Carry(_ []byte, _ core.Answerer, _ [][]byte, members []core.Answerer) ([]byte, core.Answerer, error) {
	return nil, members[0], nil
}

func (plain) Merge() *obs.Histogram { return nil }

func (plain) Encode() []byte { return nil }

func (plain) Describe() string { return "unsharded" }

// Store is one dataset ready to answer queries: a scheme, and the Π(D) it
// preprocessed laid out over one member or several. Any number of goroutines
// may call Ask or AskBatch concurrently (the scheme concurrency contract,
// core/batch.go), and — when the scheme has an incremental form —
// ApplyDeltas maintains Π(D ⊕ ∆D) through Stage. What a query reads is one
// immutable committed value behind an atomic pointer: a reader loads it once
// and a commit stores the next, so a query answers against a fully applied Π
// (old or new), never a torn one, and neither waits on the other.
//
// A plain store is the one-member case, the Plain layout. internal/shard's
// ShardedStore is a Store laid out over n members by a partition, and adds
// only the partition's facts.
type Store struct {
	// ID is the dataset identifier the store was registered under ("" for a
	// store assembled by hand without one).
	ID string
	// Scheme is the Π-tractability scheme that produced — and answers
	// against — the preprocessed bytes.
	Scheme *core.Scheme
	// Prep is Π(D) of a plain store assembled by hand, read once: the first
	// use prepares and publishes it at version 0. Open publishes its members
	// directly and leaves Prep nil, so a maintained store retains no Π but
	// the committed one. Read the current Π through View (or Answer/Snapshot),
	// never here.
	Prep []byte
	// DataSum digests the raw data the store was originally registered
	// from. Deltas do not change it — the digest pins the registration
	// identity, while Version counts the maintenance steps applied since.
	DataSum DataChecksum
	// Loaded reports whether Π came from a persisted artifact (true) or a
	// fresh Preprocess (false).
	Loaded bool

	// Maintenance serializes maintainers (see ApplyDeltas): staging and
	// artifact I/O run under its mutex, which no reader ever takes.
	Maintenance
	// state is the committed value: published by Open (or a literal's first
	// use), replaced — always whole — only by a Stage commit under
	// Maintenance.Mu.
	state atomic.Pointer[Committed]
}

// Committed is everything a dataset answers from and checkpoints at one
// version — ⟨version, summary, members, view⟩ and the layout that made them.
// It is immutable once published, but for the memoised file size: a reader
// that loaded it sees one fully applied version, never member i old and
// member j new, never a new summary with a view derived from the old one.
type Committed struct {
	layout Layout
	// version counts the deltas applied since registration; it only ever
	// grows, and every applied delta bumps it by one.
	version uint64
	// summary is the cross-member state the layout persists (nil when it
	// needs none).
	summary []byte
	members []Member
	// view answers for ⟨summary, members⟩. It is opened (or carried) before
	// the value is published: a Π the scheme refuses, or a view the layout
	// cannot build, is never committed.
	view  core.Answerer
	merge *obs.Histogram
	// snapSize memoises the size of the file a checkpoint of this value
	// writes (0 = not encoded yet), so a /v1/stats scrape encodes it at most
	// once per version, and not at all after a checkpoint.
	snapSize atomic.Int64
}

// Member is one part of a dataset's Π: its bytes, the digest of the data
// part they were preprocessed from, and the scheme's prepared form of them.
type Member struct {
	Prep     []byte
	Sum      DataChecksum
	Answerer core.Answerer
}

// Version is the number of deltas applied since registration.
func (c *Committed) Version() uint64 { return c.version }

// Summary is the cross-member state the layout persists.
func (c *Committed) Summary() []byte { return c.summary }

// Members lists the value's members, shared with it: read, never modify.
func (c *Committed) Members() []Member { return c.members }

// View is the answerer every query of this value goes through.
func (c *Committed) View() core.Answerer { return c.view }

// Snapshot renders member i of the value as a persistable snapshot of
// scheme's artifact.
func (c *Committed) Snapshot(scheme *core.Scheme, i int) *Snapshot {
	m := c.members[i]
	return &Snapshot{SchemeName: scheme.Name(), DataSum: m.Sum, Version: c.version, Prep: m.Prep}
}

// prepareMembers decodes the Π of every member marked in todo (every member
// when todo is nil) concurrently — a restart or a PATCH waits for the slowest
// decode, not the sum of them; the caller decodes the last one itself, so a
// single member costs no goroutine — and returns the refusal of the lowest
// member whose Π the scheme will not prepare.
func prepareMembers(scheme *core.Scheme, members []Member, todo []bool) error {
	errs := make([]error, len(members))
	prepare := func(i int) { members[i].Answerer, errs[i] = scheme.Prepare(members[i].Prep) }
	var wg sync.WaitGroup
	last := -1
	for i := range members {
		if todo != nil && !todo[i] {
			continue
		}
		if last >= 0 {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				prepare(i)
			}(last)
		}
		last = i
	}
	if last >= 0 {
		prepare(last)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// answerers lists the members' prepared forms, as the layout hooks take them.
func answerers(members []Member) []core.Answerer {
	out := make([]core.Answerer, len(members))
	for i, m := range members {
		out[i] = m.Answerer
	}
	return out
}

// open prepares every member and opens the layout's view over them: the
// committed value a build or a load publishes.
func open(scheme *core.Scheme, layout Layout, version uint64, summary []byte, members []Member) (*Committed, error) {
	if err := prepareMembers(scheme, members, nil); err != nil {
		return nil, err
	}
	view, err := layout.Open(summary, answerers(members))
	if err != nil {
		return nil, err
	}
	return &Committed{layout: layout, version: version, summary: summary, members: members, view: view, merge: layout.Merge()}, nil
}

// Open is the one constructor every build and load shares: it prepares each
// member's Π, opens the layout's view over them, and publishes ⟨version,
// summary, members, view⟩ as the store's first committed value. A Π the
// scheme will not prepare, or a view the layout will not open, is refused
// here, before anything is registered.
func Open(id string, scheme *core.Scheme, sum DataChecksum, layout Layout, version uint64, summary []byte, members []Member) (*Store, error) {
	start := obs.Start()
	c, err := open(scheme, layout, version, summary, members)
	if err != nil {
		return nil, err
	}
	obsWarm.Since(start)
	st := &Store{ID: id, Scheme: scheme, DataSum: sum}
	st.state.Store(c)
	return st, nil
}

// load returns the committed value — every reader's one read of shared
// state — preparing and publishing a hand-assembled store's Prep, as one
// Plain member, on first use; goroutines racing there agree on whichever
// value landed. A literal over a Π its scheme refuses answers every query
// with that refusal, as (*core.Scheme).Answer does.
func (st *Store) load() *Committed {
	c := st.state.Load()
	if c == nil {
		members := []Member{{Prep: st.Prep, Sum: st.DataSum}}
		next, err := open(st.Scheme, Plain, 0, nil, members)
		if err != nil {
			refused := core.AnswererFunc(func([]byte) (bool, error) { return false, err })
			next = &Committed{layout: Plain, members: members, view: refused}
		}
		st.state.CompareAndSwap(nil, next)
		c = st.state.Load()
	}
	return c
}

// Committed returns the committed value: one version of the dataset, whole.
func (st *Store) Committed() *Committed { return st.load() }

// View returns member 0's Π and the maintenance version it corresponds to,
// as one consistent pair — all of Π for a plain store. The returned slice is
// immutable: a commit replaces it rather than mutating it, so callers may
// read it freely.
func (st *Store) View() ([]byte, uint64) {
	c := st.load()
	return c.members[0].Prep, c.version
}

// Warm is a hand-assembled store's first use, so its first query pays a
// probe, not a Prepare. A registered store is prepared when it is opened.
func (st *Store) Warm() { st.load() }

// Snapshot renders member 0 — all of a plain store — as a persistable
// snapshot.
func (st *Store) Snapshot() *Snapshot { return st.load().Snapshot(st.Scheme, 0) }

// Version implements Dataset: the number of deltas applied since
// registration.
func (st *Store) Version() uint64 { return st.load().version }

// Stage implements DeltaDataset. The layout routes each delta to the members
// it lands on, and each local delta is applied through the scheme's
// ApplyDelta to a private copy of that member's Π; the touched members'
// answerers are then prepared — a maintained Π the scheme will not prepare
// refuses the batch — and the layout carries summary and view over the whole
// batch at once, reading those staged answerers (so of two deltas that would
// both be refused, a local one is named before a structural one, whatever
// their order). All of it runs where no query waits. The next committed
// value shares every member the batch did not touch, and the commit is one
// pointer store. A scheme with no ApplyDelta refuses every batch; a refusal
// applies nothing.
func (st *Store) Stage(ctx context.Context, deltas [][]byte) (func(version uint64), error) {
	if st.Scheme.ApplyDelta == nil {
		return nil, fmt.Errorf("store: scheme %s has no incremental form (nothing applied)", st.Scheme.Name())
	}
	cur := st.load()
	members := slices.Clone(cur.members)
	touched := make([]bool, len(members))
	for di, delta := range deltas {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("store: delta %d: %w (nothing applied)", di, err)
		}
		locals, err := cur.layout.Route(delta, cur.view)
		if err != nil {
			return nil, fmt.Errorf("store: delta %d: %w (nothing applied)", di, err)
		}
		for m, lds := range locals {
			if m < 0 || m >= len(members) {
				return nil, fmt.Errorf("store: delta %d routed to member %d out of range [0,%d) (nothing applied)", di, m, len(members))
			}
			for _, ld := range lds {
				touched[m] = true
				if members[m].Prep, err = st.Scheme.ApplyDelta(members[m].Prep, ld); err != nil {
					return nil, fmt.Errorf("store: delta %d: %w (nothing applied)", di, err)
				}
			}
		}
	}
	if err := prepareMembers(st.Scheme, members, touched); err != nil {
		return nil, fmt.Errorf("store: prepare: %w (nothing applied)", err)
	}
	summary, view, err := cur.layout.Carry(cur.summary, cur.view, deltas, answerers(members))
	if err != nil {
		return nil, fmt.Errorf("store: %w (nothing applied)", err)
	}
	next := &Committed{layout: cur.layout, summary: summary, members: members, view: view, merge: cur.merge}
	return func(version uint64) {
		next.version = version
		st.state.Store(next)
	}, nil
}

// Checkpoint implements DeltaDataset: the committed value rewritten, by one
// atomic rename (and directory fsync), as the file a restarted registry
// loads — until the rename lands the file on disk is the previous
// checkpoint, whole.
func (st *Store) Checkpoint(fsys FS, dir string) error {
	c := st.load()
	return WriteFileAtomicFS(fsys, DatasetPath(dir, st.ID), st.encode(c))
}

// Key is the registration the store answers for.
func (st *Store) Key() Key {
	return Key{Scheme: st.Scheme.Name(), Sum: st.DataSum, Layout: st.load().layout.Describe()}
}

// DatasetID implements Dataset.
func (st *Store) DatasetID() string { return st.ID }

// SchemeName implements Dataset.
func (st *Store) SchemeName() string { return st.Scheme.Name() }

// DataDigest implements Dataset.
func (st *Store) DataDigest() DataChecksum { return st.DataSum }

// PrepBytes implements Dataset: the members' Π plus the summary.
func (st *Store) PrepBytes() int {
	c := st.load()
	total := len(c.summary)
	for _, m := range c.members {
		total += len(m.Prep)
	}
	return total
}

// ShardCount implements Dataset: the number of members.
func (st *Store) ShardCount() int { return len(st.load().members) }

// SnapshotBytes implements Dataset: the size of the file a checkpoint of the
// current version writes, whether or not the store is persisted. It is
// encoded once per committed value — by the checkpoint, when there was one —
// holding nothing a query or a commit waits for (racing scrapes of a fresh
// value may each encode it).
func (st *Store) SnapshotBytes() int {
	c := st.load()
	if size := c.snapSize.Load(); size != 0 {
		return int(size)
	}
	return len(st.encode(c))
}

// WasLoaded implements Dataset.
func (st *Store) WasLoaded() bool { return st.Loaded }

// Ask implements Dataset: one query through the committed view, at the
// version committed with it. ctx is checked up front (a single prepared
// probe is too fine-grained to interrupt mid-flight).
func (st *Store) Ask(ctx context.Context, q []byte) (Verdict, error) {
	if err := ctx.Err(); err != nil {
		return Verdict{}, err
	}
	c := st.load()
	start := c.merge.Start()
	ans, err := c.view.Answer(q)
	c.merge.Since(start)
	return Verdict{Answer: ans, Version: c.version}, err
}

// AskBatch implements Dataset: queries answered concurrently through the
// scheme's worker pool (parallelism <= 0 selects GOMAXPROCS), ctx consulted
// before every probe so an expired deadline abandons the remainder of the
// batch instead of paying it, and errors carrying the caller's own query
// index. The whole batch answers against one committed value, loaded once up
// front, even if a delta commits mid-batch.
func (st *Store) AskBatch(ctx context.Context, queries [][]byte, parallelism int) (Verdicts, error) {
	if err := ctx.Err(); err != nil {
		return Verdicts{}, err
	}
	c := st.load()
	vs := Verdicts{Answers: []bool{}, Version: c.version}
	if len(queries) == 0 {
		return vs, nil
	}
	start := c.merge.Start()
	var err error
	vs.Answers, err = core.AnswerBatchPrepared(ctx, st.Scheme.Name(), c.view, queries, parallelism)
	c.merge.Since(start)
	return vs, err
}

// Answer implements Dataset: Ask with no deadline.
func (st *Store) Answer(q []byte) (bool, error) {
	v, err := st.Ask(context.Background(), q)
	return v.Answer, err
}

// AnswerBatch implements Dataset: AskBatch with no deadline.
func (st *Store) AnswerBatch(queries [][]byte, parallelism int) ([]bool, error) {
	vs, err := st.AskBatch(context.Background(), queries, parallelism)
	return vs.Answers, err
}
