// Package shard partitions one dataset across several preprocessed parts
// and routes queries to them — the horizontal-scaling face of the paper's
// Π-tractability contract. Preprocess(D) is PTIME in |D|; cutting D into n
// parts preprocesses n datasets of size |D|/n (concurrently, and with
// sub-linear artifacts like the reachability closure matrix, into
// strictly smaller total output), while answering stays inside the NC
// budget: a query is either routed to the single shard that owns its
// answer, or answered through a view prepared over all of them.
//
// The moving parts:
//
//   - Partitioner (hash, range) freezes an Assignment of element keys to
//     shards.
//   - Sharding is the per-scheme bundle of five hooks: Split decodes the
//     dataset once and returns the assignment, the n sub-datasets and the
//     cross-shard summary (e.g. the reachability portal overlay); Prepare
//     turns a persisted summary plus the per-shard answerers into the view
//     every query answers through (a scheme without one gets the router over
//     Route, which finds a query's owning shard or fans it out, verdicts
//     ORed); SplitDelta routes one delta to the shards it lands on; Maintain
//     carries the summary and the view over one delta batch.
//   - ShardedStore serves the dataset from one immutable committed value —
//     version, summary, a ⟨Π, answerer⟩ member per shard, the view —
//     published through an atomic pointer: readers load it, a PATCH builds
//     the next one (sharing the members it did not touch) and stores it. A
//     value is published only once every member's Prepare and the view
//     have succeeded: a Π the scheme will not read fails the build, is a
//     corrupt manifest at load, or refuses the PATCH. It answers exactly
//     like a plain store.Store — differential tests pin sharded answers
//     byte-identical to unsharded ones.
//   - Manifest + RegisterSharded persist the whole thing as one catalog
//     entry backed by one file: the manifest, carrying every member's
//     snapshot, written by one atomic rename.
//
// Layering: shard sits on top of internal/store (it reuses the snapshot
// format and rides store.ApplyDeltas and Registry.Recover) and below
// internal/server (which routes /v1/query through store.Dataset, the
// interface both kinds implement).
package shard

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pitract/internal/core"
	"pitract/internal/obs"
	"pitract/internal/store"
)

// Stage histograms for the sharded answer and build paths, resolved once at
// init. Fan-out times a query sent to every shard (cost scales with shard
// count); merge times answering through the prepared summary view
// (reachability: a word-AND over the portal reach rows). The maintenance
// stages are store.ApplyDeltas', for every dataset kind.
var (
	obsShardFanout = obs.Stage(obs.StageShardFanout)
	obsShardMerge  = obs.Stage(obs.StageShardMerge)
	obsPreprocess  = obs.Stage(obs.StagePreprocess)
	obsWarm        = obs.Stage(obs.StageWarm)
)

// Sharding adapts one scheme to a partitioned dataset. Split runs once, at
// preprocessing time; Route and the prepared view sit on the answer path and
// must stay within the scheme's NC answering budget (they do constant or
// polylog work over the assignment and summary, never touch raw data).
type Sharding struct {
	// Split decodes data once, plans the assignment of its element keys to n
	// shards with p, and re-encodes it as n sub-datasets — element i in part
	// asn.Shard(key i), every part a dataset the scheme's Preprocess accepts —
	// plus the cross-shard summary the manifest persists (e.g. the
	// reachability portal-overlay closure; nil when the scheme needs none).
	// The partitioner's errors pass through; the hook's own name their phase
	// ("keys: …" for a dataset that yields no keys, "split: …" for parts or a
	// summary that cannot be built).
	Split func(data []byte, p Partitioner, n int) (asn Assignment, parts [][]byte, summary []byte, err error)
	// Prepare builds the dataset's prepared view from a persisted summary and
	// the per-shard prepared answerers — at build and load, never per
	// query (that would smuggle O(|D|) work into the NC answering budget) and
	// not per PATCH (Maintain carries the view forward). Schemes that set it
	// answer every query through the returned Answerer and Route is not
	// consulted; the view is derived state, never persisted. Nil for schemes
	// whose queries Route alone can place: their view is the router.
	Prepare func(summary []byte, asn Assignment, shards []core.Answerer) (core.Answerer, error)
	// Route returns the single shard that alone owns q's answer, or -1 to
	// send q unchanged to every shard and OR the verdicts.
	Route func(q []byte, asn Assignment) (int, error)

	// SplitDelta routes one dataset delta to the shards it lands on: the
	// result maps a shard index to the local deltas (in application order)
	// for that shard's Π, each in the scheme's own delta encoding —
	// e.g. a key-insertion batch splits by partitioner into one per-shard
	// batch, and a same-shard edge insert becomes one relabelled local
	// edge. An empty map is valid (a purely cross-shard delta touches only
	// the summary). view is the dataset's prepared view *as of the start of
	// the delta batch* — SplitDelta must only depend on
	// summary state deltas cannot change (the vertex universe and
	// relabelling, not derived connectivity). Nil SplitDelta means the
	// sharded form has no delta routing: PATCH is refused with a clean error
	// and the dataset stays exactly as it was.
	SplitDelta func(delta []byte, asn Assignment, view core.Answerer) (map[int][][]byte, error)
	// Maintain carries a scheme's own view over one delta batch, once the
	// batch's local deltas are applied: it starts from the committed view
	// (which it must not modify — queries are reading it), applies the deltas'
	// changes to the cross-shard structure in order, rebuilds what is derived
	// from it and from shards — the staged, not yet committed, per-shard
	// answerers — once, and returns the next view with its summary encoded
	// once. A refusal names what failed ("delta 3: summary: …", "finish
	// summary: …") and nothing is applied. Nil means deltas never change the
	// summary: the next view is prepared from the same bytes (the router, for
	// a scheme without Prepare).
	Maintain func(view core.Answerer, asn Assignment, deltas [][]byte, shards []core.Answerer) (summary []byte, next core.Answerer, err error)
}

// member is one shard of a committed value: its Π, the digest of the part Π
// was preprocessed from, and the answerer decoded from Π.
type member struct {
	prep     []byte
	sum      store.DataChecksum
	answerer core.Answerer
}

// prepareMembers decodes the Π of every member marked in todo (every member
// when todo is nil) concurrently — a restart or a PATCH waits for the slowest
// decode, not the sum of them — and names the lowest shard whose Π the scheme
// refused.
func prepareMembers(scheme *core.Scheme, shards []member, todo []bool) error {
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		if todo == nil || todo[i] {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				shards[i].answerer, errs[i] = scheme.Prepare(shards[i].prep)
			}(i)
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// prepared lists the members' answerers, as the hooks take them.
func prepared(shards []member) []core.Answerer {
	out := make([]core.Answerer, len(shards))
	for i, m := range shards {
		out[i] = m.answerer
	}
	return out
}

// committed is everything a sharded dataset answers from and checkpoints at
// one version. It is immutable once published: a reader that loaded it sees
// one fully applied version — never shard i old and shard j new, never a new
// summary with a view derived from the old one — and neither queries nor a
// commit ever wait on each other.
type committed struct {
	// version counts the deltas applied since registration.
	version uint64
	// summary is the cross-shard state the manifest persists (nil when the
	// scheme needs none).
	summary []byte
	shards  []member
	// view answers for ⟨summary, shards⟩ — the scheme's Prepare or Maintain
	// output, or the router.
	view core.Answerer
	// snapSize memoises SnapshotBytes (0 = not encoded yet).
	snapSize atomic.Int64
}

// snapshots renders the value as a checkpoint writes it: one snapshot per
// shard, all at the value's version.
func (c *committed) snapshots(scheme *core.Scheme) []*store.Snapshot {
	snaps := make([]*store.Snapshot, len(c.shards))
	for i, m := range c.shards {
		snaps[i] = store.NewSnapshot(scheme, m.sum, c.version, m.prep)
	}
	return snaps
}

// ShardedStore is one dataset served from n preprocessed parts behind a
// single catalog entry. It implements store.Dataset, so the HTTP server and
// the registry treat it exactly like a plain store; every query answers
// through the committed view.
type ShardedStore struct {
	// ID is the dataset identifier the store was registered under.
	ID string
	// Scheme preprocessed — and answers against — each part.
	Scheme *core.Scheme
	// Sharding is the per-scheme hook bundle.
	Sharding *Sharding
	// Asn is the frozen key→shard assignment.
	Asn Assignment
	// DataSum digests the raw (unsplit) data.
	DataSum store.DataChecksum
	// Loaded reports whether every shard was reloaded from snapshots.
	Loaded bool
	// Partitioner names the partitioner that planned Asn ("hash", "range");
	// persisted in the manifest so reloads only match like-partitioned
	// snapshots.
	Partitioner string

	// Maintenance serializes maintainers; see store.ApplyDeltas.
	store.Maintenance
	// state is the committed value. Build and LoadShardedFS publish the
	// first; after that only a Stage commit, under Maintenance.Mu, stores,
	// always a whole new value.
	state atomic.Pointer[committed]
}

// router is the view of a scheme without its own Prepare: Route places a
// query on its owning shard's answerer, or the query goes unchanged to
// every shard and the verdicts are ORed.
type router struct {
	route  func(q []byte, asn Assignment) (int, error)
	asn    Assignment
	shards []core.Answerer
}

// Answer implements core.Answerer.
func (r *router) Answer(q []byte) (bool, error) {
	owner, err := r.route(q, r.asn)
	if err != nil {
		return false, err
	}
	if owner >= len(r.shards) {
		return false, fmt.Errorf("shard: route to shard %d out of range [0,%d)", owner, len(r.shards))
	}
	if owner >= 0 {
		return r.shards[owner].Answer(q)
	}
	fanStart := obs.Start()
	found := false
	for _, sh := range r.shards {
		v, err := sh.Answer(q)
		if err != nil {
			return false, err
		}
		found = found || v
	}
	obsShardFanout.Since(fanStart)
	return found, nil
}

// prepareView builds the dataset's view for ⟨summary, shards⟩: the scheme's
// own Prepare output, or the router.
func (sh *Sharding) prepareView(summary []byte, asn Assignment, shards []core.Answerer) (core.Answerer, error) {
	if sh.Prepare == nil {
		return &router{route: sh.Route, asn: asn, shards: shards}, nil
	}
	return sh.Prepare(summary, asn, shards)
}

// publish prepares the view over ⟨summary, shards⟩ and stores the committed
// value — registration and reload, where the summary arrives as bytes. A
// view the scheme will not prepare publishes nothing.
func (ss *ShardedStore) publish(version uint64, summary []byte, shards []member) error {
	start := obs.Start()
	view, err := ss.Sharding.prepareView(summary, ss.Asn, prepared(shards))
	if err != nil {
		return err
	}
	obsWarm.Since(start)
	ss.state.Store(&committed{version: version, summary: summary, shards: shards, view: view})
	return nil
}

// mergeStart starts the shard_merge clock for one call — a single, or a
// whole batch — through a scheme's own view. The router is not timed here
// (the zero Time makes Since a no-op): its routed singles must not pay a
// clock pair per probe, and its fan-outs time themselves.
func (c *committed) mergeStart() time.Time {
	if _, routed := c.view.(*router); routed {
		return time.Time{}
	}
	return obs.Start()
}

// DatasetID implements store.Dataset.
func (ss *ShardedStore) DatasetID() string { return ss.ID }

// SchemeName implements store.Dataset.
func (ss *ShardedStore) SchemeName() string { return ss.Scheme.Name() }

// DataDigest implements store.Dataset.
func (ss *ShardedStore) DataDigest() store.DataChecksum { return ss.DataSum }

// PrepBytes implements store.Dataset: the summed per-shard artifacts plus
// the cross-shard summary.
func (ss *ShardedStore) PrepBytes() int {
	c := ss.state.Load()
	total := len(c.summary)
	for _, m := range c.shards {
		total += len(m.prep)
	}
	return total
}

// ShardCount implements store.Dataset.
func (ss *ShardedStore) ShardCount() int { return len(ss.state.Load().shards) }

// SnapshotBytes implements store.Dataset: the size of the file a checkpoint
// writes — the manifest with every member's snapshot in it. It is encoded
// once per committed value (by the checkpoint, when there was one), holding
// nothing a query or a commit waits for (racing scrapes of a fresh value may
// each encode it).
func (ss *ShardedStore) SnapshotBytes() int {
	c := ss.state.Load()
	if size := c.snapSize.Load(); size != 0 {
		return int(size)
	}
	return len(ss.checkpointBytes(c))
}

// WasLoaded implements store.Dataset.
func (ss *ShardedStore) WasLoaded() bool { return ss.Loaded }

// Version implements store.Dataset: the number of deltas applied since
// registration.
func (ss *ShardedStore) Version() uint64 { return ss.state.Load().version }

// Committed returns the committed value as a checkpoint would write it — the
// cross-shard summary and one snapshot per shard — with the version all of it
// belongs to.
func (ss *ShardedStore) Committed() (version uint64, summary []byte, shards []*store.Snapshot) {
	c := ss.state.Load()
	return c.version, c.summary, c.snapshots(ss.Scheme)
}

// Ask implements store.Dataset: one query through the committed view, at
// the version committed with it.
func (ss *ShardedStore) Ask(ctx context.Context, q []byte) (store.Verdict, error) {
	if err := ctx.Err(); err != nil {
		return store.Verdict{}, err
	}
	c := ss.state.Load()
	start := c.mergeStart()
	ans, err := c.view.Answer(q)
	obsShardMerge.Since(start)
	return store.Verdict{Answer: ans, Version: c.version}, err
}

// AskBatch implements store.Dataset: the batch rides the shared worker pool
// over one committed view, so all verdicts come from one maintenance
// version, ctx is consulted before every probe, and errors carry the
// caller's own query index.
func (ss *ShardedStore) AskBatch(ctx context.Context, queries [][]byte, parallelism int) (store.Verdicts, error) {
	if err := ctx.Err(); err != nil {
		return store.Verdicts{}, err
	}
	c := ss.state.Load()
	vs := store.Verdicts{Answers: []bool{}, Version: c.version}
	if len(queries) == 0 {
		return vs, nil
	}
	start := c.mergeStart()
	var err error
	vs.Answers, err = core.AnswerBatchPrepared(ctx, ss.Scheme.Name(), c.view, queries, parallelism)
	obsShardMerge.Since(start)
	return vs, err
}

// Answer implements store.Dataset: Ask with no deadline.
func (ss *ShardedStore) Answer(q []byte) (bool, error) {
	v, err := ss.Ask(context.Background(), q)
	return v.Answer, err
}

// AnswerBatch implements store.Dataset: AskBatch with no deadline.
func (ss *ShardedStore) AnswerBatch(queries [][]byte, parallelism int) ([]bool, error) {
	vs, err := ss.AskBatch(context.Background(), queries, parallelism)
	return vs.Answers, err
}

// Stage implements store.DeltaDataset. Each delta is routed by the scheme's
// SplitDelta hook to the shards it lands on (local deltas applied through
// the scheme's ApplyDelta, exactly as an unsharded store would); the
// touched shards' answerers are then decoded — a maintained Π the scheme will
// not prepare refuses the batch — and the scheme's Maintain hook
// carries summary and view — for reachability the cross-edge arc file, the
// overlay closure and the portal reach rows — over the whole batch at once,
// reading those staged answerers (so of two deltas that would both be
// refused, a local one is named before a structural one, whatever their
// order). The next committed value shares every member the batch did not
// touch, and the commit is one pointer store. The delta log records the
// original (top-level) deltas, so replay re-routes them through this same
// path.
//
// Schemes with no ApplyDelta, and those whose sharded form has no delta
// routing (SplitDelta == nil), refuse cleanly; the HTTP layer surfaces that
// as a 409.
func (ss *ShardedStore) Stage(ctx context.Context, deltas [][]byte) (func(version uint64), error) {
	sh := ss.Sharding
	if ss.Scheme.ApplyDelta == nil {
		return nil, fmt.Errorf("shard: scheme %s has no incremental form (nothing applied)", ss.Scheme.Name())
	}
	if sh.SplitDelta == nil {
		return nil, fmt.Errorf("shard: scheme %s has no sharded delta routing; re-register unsharded to maintain it",
			ss.Scheme.Name())
	}
	// SplitDelta receives the committed view — its contract only depends on
	// delta-invariant summary state (vertex universe, local relabelling).
	cur := ss.state.Load()
	n := len(cur.shards)
	shards := slices.Clone(cur.shards)
	touched := make([]bool, n)
	for di, delta := range deltas {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("shard: delta %d: %w (nothing applied)", di, err)
		}
		locals, err := sh.SplitDelta(delta, ss.Asn, cur.view)
		if err != nil {
			return nil, fmt.Errorf("shard: delta %d: %w (nothing applied)", di, err)
		}
		for s, lds := range locals {
			if s < 0 || s >= n {
				return nil, fmt.Errorf("shard: delta %d routed to shard %d out of range [0,%d) (nothing applied)", di, s, n)
			}
			for _, ld := range lds {
				touched[s] = true
				if shards[s].prep, err = ss.Scheme.ApplyDelta(shards[s].prep, ld); err != nil {
					return nil, fmt.Errorf("shard: delta %d on shard %d: %w (nothing applied)", di, s, err)
				}
			}
		}
	}
	// Decode the touched shards' maintained Π here, before anything is
	// published; untouched members are carried over as they are, answerer
	// included.
	if err := prepareMembers(ss.Scheme, shards, touched); err != nil {
		return nil, fmt.Errorf("shard: prepare %w (nothing applied)", err)
	}
	next := &committed{summary: cur.summary, shards: shards}
	var err error
	if sh.Maintain != nil {
		if next.summary, next.view, err = sh.Maintain(cur.view, ss.Asn, deltas, prepared(shards)); err != nil {
			return nil, fmt.Errorf("shard: %w (nothing applied)", err)
		}
	} else if next.view, err = sh.prepareView(cur.summary, ss.Asn, prepared(shards)); err != nil {
		return nil, fmt.Errorf("shard: prepare summary: %w (nothing applied)", err)
	}
	return func(version uint64) {
		next.version = version
		ss.state.Store(next)
	}, nil
}

// Build cuts data into n parts with the partitioner, preprocesses every
// part concurrently, and assembles the sharded store. It does not persist
// anything; RegisterSharded adds snapshots and the manifest.
func Build(id string, scheme *core.Scheme, sh *Sharding, p Partitioner, n int, data []byte) (*ShardedStore, error) {
	if scheme == nil || sh == nil {
		return nil, fmt.Errorf("shard: build %q: nil scheme or sharding", id)
	}
	if n < 1 {
		return nil, fmt.Errorf("shard: build %q: shard count %d < 1", id, n)
	}
	asn, parts, summary, err := sh.Split(data, p, n)
	if err != nil {
		return nil, fmt.Errorf("shard: build %q: %w", id, err)
	}
	if len(parts) != n {
		return nil, fmt.Errorf("shard: build %q: split produced %d parts, want %d", id, len(parts), n)
	}
	ss := &ShardedStore{
		ID:          id,
		Scheme:      scheme,
		Sharding:    sh,
		Asn:         asn,
		DataSum:     store.SumData(data),
		Partitioner: p.Name(),
	}
	// Preprocess the parts concurrently: the per-part PTIME cost is the
	// thing sharding scales out.
	var wg sync.WaitGroup
	shards, errs := make([]member, n), make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("shard: build %q: preprocess shard %d panicked: %v", id, i, p)
				}
			}()
			ppStart := obs.Start()
			pd, err := scheme.Preprocess(parts[i])
			if err != nil {
				errs[i] = fmt.Errorf("shard: build %q: preprocess shard %d: %w", id, i, err)
				return
			}
			obsPreprocess.Since(ppStart)
			// Each shard's Π decodes into its prepared form inside the same
			// per-shard goroutine, so warm-up parallelizes with preprocessing.
			warmStart := obs.Start()
			a, err := scheme.Prepare(pd)
			if err != nil {
				errs[i] = fmt.Errorf("shard: build %q: prepare shard %d: %w", id, i, err)
				return
			}
			obsWarm.Since(warmStart)
			shards[i] = member{prep: pd, sum: store.SumData(parts[i]), answerer: a}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// The summary view (reachability: the portal reach rows) is part of
	// registration, not of the first query.
	if err := ss.publish(0, summary, shards); err != nil {
		return nil, fmt.Errorf("shard: build %q: prepare summary: %w", id, err)
	}
	return ss, nil
}
