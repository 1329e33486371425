// Package shard partitions one dataset across several preprocessed stores
// and routes queries to them — the horizontal-scaling face of the paper's
// Π-tractability contract. Preprocess(D) is PTIME in |D|; cutting D into n
// parts preprocesses n datasets of size |D|/n (concurrently, and with
// sub-linear artifacts like the reachability closure matrix, into
// strictly smaller total output), while answering stays inside the NC
// budget: a query is either routed to the single shard that owns its
// answer, or fanned out to every shard and the per-shard verdicts merged
// by a scheme-specific reducer.
//
// The moving parts:
//
//   - Partitioner (hash, range) freezes an Assignment of element keys to
//     shards.
//   - Sharding is the per-scheme hook bundle: Keys extracts partition keys,
//     Split re-encodes the dataset as n valid sub-datasets, Route finds a
//     query's owning shard (or fans it out unchanged, verdicts ORed),
//     Summarize builds cross-shard state (e.g. the reachability portal
//     overlay), and Prepare turns that state plus the per-shard prepared
//     answerers into one answerer for the whole dataset — the view every
//     query answers through; a scheme without its own Prepare gets the
//     router over Route as its view.
//   - ShardedStore holds the n per-shard stores plus the assignment and
//     summary, and answers exactly like a plain store.Store — differential
//     tests pin sharded answers byte-identical to unsharded ones.
//   - Manifest + RegisterSharded persist the whole thing as one catalog
//     entry backed by n snapshot files with per-shard SHA-256 integrity.
//
// Layering: shard sits on top of internal/store (it composes plain stores
// and reuses the snapshot format) and below internal/server (which routes
// /v1/query through store.Dataset, the interface both implement).
package shard

import (
	"context"
	"fmt"
	"sync"
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

// PreparedShard is one member store's prepared answerer as the summary
// hooks see it: Answerer is nil exactly when Err — the shard's sticky
// Prepare failure — is set.
type PreparedShard struct {
	Answerer core.Answerer
	Err      error
}

// Sharding adapts one scheme to partitioned stores. Split/Keys/Summarize
// run once at preprocessing time; Route and the prepared view sit on the
// answer path and must stay within the scheme's NC answering budget (they
// do constant or polylog work over the assignment and summary, never touch
// raw data).
type Sharding struct {
	// Keys extracts every element's partition key, in element order, from
	// an encoded dataset.
	Keys func(data []byte) ([]int64, error)
	// Split re-encodes data as asn.Shards() valid sub-datasets, element i
	// going to shard asn.Shard(keys[i]). Every part must itself be a
	// dataset the scheme's Preprocess accepts.
	Split func(data []byte, asn Assignment) ([][]byte, error)
	// Summarize builds the cross-shard summary artifact from the original
	// data (e.g. the reachability portal-overlay closure). Nil when the
	// scheme needs none; the result is persisted in the manifest.
	Summarize func(data []byte, asn Assignment) ([]byte, error)
	// SplitSummarize computes Split and Summarize in one pass over the
	// decoded dataset; Build prefers it when set, so schemes whose split
	// and summary share expensive intermediate state (reachability decodes
	// the graph and builds the induced subgraphs for both) do that work
	// once per registration instead of once per hook.
	SplitSummarize func(data []byte, asn Assignment) (parts [][]byte, summary []byte, err error)
	// Prepare builds the dataset's prepared view from the summary and the
	// per-shard prepared answerers — once per committed ⟨summary, Π⟩, never
	// per query (that would smuggle O(|D|) work into the NC answering
	// budget). Schemes that set it answer every query through the returned
	// Answerer and Route is not consulted; the view is derived state, never
	// persisted. Nil for schemes whose queries Route alone can place: their
	// view is the router.
	Prepare func(summary []byte, asn Assignment, shards []PreparedShard) (core.Answerer, error)
	// Route returns the single shard that alone owns q's answer, or -1 to
	// send q unchanged to every shard and OR the verdicts.
	Route func(q []byte, asn Assignment) (int, error)

	// SplitDelta routes one dataset delta to the shards it lands on: the
	// result maps a shard index to the local deltas (in application order)
	// for that shard's store, each in the scheme's own delta encoding —
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
	// UpdateSummary maintains the cross-shard summary's *structure* after
	// one delta's local deltas have been applied (e.g. extends the
	// reachability cross-edge list and portal set). Derived state that is
	// expensive to recompute belongs in FinishSummary, which runs once per
	// batch. Nil means the summary never changes under deltas (schemes
	// without summaries). The []byte-in/[]byte-out shape keeps the hook
	// scheme-agnostic at the cost of a summary decode/encode per
	// structure-changing delta; schemes should short-circuit deltas that
	// provably leave the structure unchanged (reachability returns the
	// input summary for same-shard edges).
	UpdateSummary func(delta []byte, asn Assignment, summary []byte) ([]byte, error)
	// FinishSummary recomputes the summary's derived state once after the
	// whole delta batch (e.g. the reachability overlay closure — paying it
	// per delta would waste k-1 of k rebuilds), reading the staged (pending,
	// not yet committed) per-shard answerers. Nil when UpdateSummary leaves
	// nothing deferred.
	FinishSummary func(asn Assignment, summary []byte, shards []PreparedShard) ([]byte, error)
}

// ShardedStore is one dataset served from n per-shard preprocessed stores
// behind a single catalog entry. It implements store.Dataset, so the HTTP
// server and the registry treat it exactly like a plain store; every query
// answers through the committed view.
type ShardedStore struct {
	// ID is the dataset identifier the store was registered under.
	ID string
	// Scheme answers against each per-shard store.
	Scheme *core.Scheme
	// Sharding is the per-scheme routing/merging hook bundle.
	Sharding *Sharding
	// Asn is the frozen key→shard assignment.
	Asn Assignment
	// Summary is the cross-shard state from Sharding.Summarize (nil when
	// the scheme needs none).
	Summary []byte
	// Stores holds the per-shard preprocessed stores, indexed by shard.
	Stores []*store.Store
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
	// mu guards the mutable answer state — the per-shard preprocessed
	// strings, Summary, version, and view — against a Stage commit. Ask and
	// AskBatch pin ⟨view, version⟩ under the read lock and answer outside
	// it: the view is immutable, so a query (even a fan-out touching every
	// shard plus the summary) always observes one fully applied version,
	// never shard i old and shard j new, and neither queries nor the commit
	// swap ever wait on each other's work.
	mu sync.RWMutex
	// version counts the deltas applied since registration (restored from
	// the manifest on reload).
	version uint64

	// view answers for the committed ⟨Summary, per-shard Π⟩ — the scheme's
	// Prepare output, or the router — immutable once published; viewErr is
	// the sticky Prepare failure (view is nil exactly then, or when the
	// store was assembled by hand rather than by Build/LoadShardedFS). Both
	// are guarded by mu and swapped in the same critical section as Summary,
	// version and the per-shard stores, so a query never pairs a new
	// summary with a view derived from the old one. Build and LoadShardedFS
	// prepare it eagerly — the first query never pays for it.
	view    core.Answerer
	viewErr error
}

// router is the view of a scheme without its own Prepare: Route places a
// query on its owning shard's pinned answerer, or the query goes unchanged
// to every shard and the verdicts are ORed.
type router struct {
	route  func(q []byte, asn Assignment) (int, error)
	asn    Assignment
	shards []PreparedShard
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
		return r.shards[owner].answer(q)
	}
	fanStart := obs.Start()
	found := false
	for _, sh := range r.shards {
		v, err := sh.answer(q)
		if err != nil {
			return false, err
		}
		found = found || v
	}
	obsShardFanout.Since(fanStart)
	return found, nil
}

// answer probes the shard, or reports its sticky Prepare failure.
func (p PreparedShard) answer(q []byte) (bool, error) {
	if p.Err != nil {
		return false, p.Err
	}
	return p.Answerer.Answer(q)
}

// preparedShards snapshots every member store's prepared answerer.
func (ss *ShardedStore) preparedShards() []PreparedShard {
	shards := make([]PreparedShard, len(ss.Stores))
	for i, st := range ss.Stores {
		shards[i].Answerer, shards[i].Err = st.Prepared()
	}
	return shards
}

// prepareView builds the dataset's view for ⟨summary, shards⟩: the scheme's
// own Prepare output, or the router.
func (sh *Sharding) prepareView(summary []byte, asn Assignment, shards []PreparedShard) (core.Answerer, error) {
	if sh.Prepare == nil {
		return &router{route: sh.Route, asn: asn, shards: shards}, nil
	}
	return sh.Prepare(summary, asn, shards)
}

// refreshView rebuilds the view from the committed summary and the member
// stores' current answerers. Callers hold Maint().Mu or own the store
// exclusively (Build, LoadShardedFS), which is what orders the Summary read.
func (ss *ShardedStore) refreshView() error {
	start := obs.Start()
	view, err := ss.Sharding.prepareView(ss.Summary, ss.Asn, ss.preparedShards())
	obsWarm.Since(start)
	ss.mu.Lock()
	ss.view, ss.viewErr = view, err
	ss.mu.Unlock()
	return err
}

// pinned is the committed answer state one ask reads: the view and the
// version it answers at.
type pinned struct {
	core.Answerer
	err     error
	version uint64
}

// pin reads the committed answer state in one critical section. A store
// without a view reports why: the sticky Prepare failure, or that it was
// assembled by hand rather than by Build or LoadShardedFS.
func (ss *ShardedStore) pin() pinned {
	ss.mu.RLock()
	p := pinned{ss.view, ss.viewErr, ss.version}
	ss.mu.RUnlock()
	if p.Answerer == nil && p.err == nil {
		p.err = fmt.Errorf("shard: dataset %q has no prepared summary view", ss.ID)
	}
	return p
}

// mergeStart starts the shard_merge clock for one call — a single, or a
// whole batch — through a scheme's own Prepare output. The router is not
// timed here (the zero Time makes Since a no-op): its routed singles must
// not pay a clock pair per probe, and its fan-outs time themselves.
func (p pinned) mergeStart() time.Time {
	if _, routed := p.Answerer.(*router); routed {
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
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	total := len(ss.Summary)
	for _, st := range ss.Stores {
		total += st.PrepBytes()
	}
	return total
}

// ShardCount implements store.Dataset.
func (ss *ShardedStore) ShardCount() int { return len(ss.Stores) }

// SnapshotBytes implements store.Dataset: the summed encoded sizes
// of the per-shard snapshots plus the cross-shard summary the manifest
// carries — what a generation checkpoint would write.
func (ss *ShardedStore) SnapshotBytes() int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	total := len(ss.Summary)
	for _, st := range ss.Stores {
		total += st.SnapshotBytes()
	}
	return total
}

// WasLoaded implements store.Dataset.
func (ss *ShardedStore) WasLoaded() bool { return ss.Loaded }

// Version implements store.Dataset: the number of deltas applied since
// registration.
func (ss *ShardedStore) Version() uint64 {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.version
}

// SetVersion stamps the maintenance version on a freshly constructed store
// (manifest reloads restore the persisted counter). It must not be called
// once the store is shared; store.ApplyDeltas is the concurrent-safe
// mutation.
func (ss *ShardedStore) SetVersion(v uint64) { ss.version = v }

// CanDegrade implements store.Dataset: a sharded dataset has no degraded
// form (the view is derived from the per-shard exact answerers).
func (ss *ShardedStore) CanDegrade() bool { return false }

// askable refuses an ask before any work: a mode the dataset cannot serve,
// or a cancelled ctx.
func (ss *ShardedStore) askable(ctx context.Context, mode store.Mode) error {
	if mode != store.Exact {
		return fmt.Errorf("scheme %s: %w", ss.Scheme.Name(), store.ErrNoFallback)
	}
	return ctx.Err()
}

// Ask implements store.Dataset: one query through the pinned view, at the
// version pinned with it.
func (ss *ShardedStore) Ask(ctx context.Context, q []byte, mode store.Mode) (store.Verdict, error) {
	if err := ss.askable(ctx, mode); err != nil {
		return store.Verdict{}, err
	}
	p := ss.pin()
	if p.err != nil {
		return store.Verdict{Version: p.version}, p.err
	}
	start := p.mergeStart()
	ans, err := p.Answer(q)
	obsShardMerge.Since(start)
	return store.Verdict{Answer: ans, Version: p.version}, err
}

// AskBatch implements store.Dataset: the batch rides the shared worker pool
// over the pinned view, so all verdicts come from one maintenance version,
// ctx is consulted before every probe, and errors carry the caller's own
// query index.
func (ss *ShardedStore) AskBatch(ctx context.Context, queries [][]byte, parallelism int, mode store.Mode) (store.Verdicts, error) {
	if err := ss.askable(ctx, mode); err != nil {
		return store.Verdicts{}, err
	}
	p := ss.pin()
	vs := store.Verdicts{Answers: []bool{}, Version: p.version}
	if len(queries) == 0 {
		return vs, nil
	}
	if p.err != nil {
		return vs, fmt.Errorf("scheme %s: batch query %d: %w", ss.Scheme.Name(), 0, p.err)
	}
	start := p.mergeStart()
	var err error
	vs.Answers, err = core.AnswerBatchPreparedContext(ctx, ss.Scheme.Name(), p.Answerer, queries, parallelism)
	obsShardMerge.Since(start)
	return vs, err
}

// Answer implements store.Dataset: Ask in Exact mode with no deadline.
func (ss *ShardedStore) Answer(q []byte) (bool, error) {
	v, err := ss.Ask(context.Background(), q, store.Exact)
	return v.Answer, err
}

// AnswerBatch implements store.Dataset: AskBatch in Exact mode with no
// deadline.
func (ss *ShardedStore) AnswerBatch(queries [][]byte, parallelism int) ([]bool, error) {
	vs, err := ss.AskBatch(context.Background(), queries, parallelism, store.Exact)
	return vs.Answers, err
}

// RetryPrepare implements store.Dataset: every member store drops and
// rebuilds its prepared answerer (the half-open probe's heal hook), then
// the view is rebuilt from the healed answerers — so the shard that was
// failing gets its rows back. The first failure is reported after all
// shards have retried. It serializes with maintenance: a PATCH stages and
// commits its own view.
func (ss *ShardedStore) RetryPrepare() error {
	ss.Maintenance.Mu.Lock()
	defer ss.Maintenance.Mu.Unlock()
	var firstErr error
	for _, st := range ss.Stores {
		if err := st.RetryPrepare(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := ss.refreshView(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Stage implements store.DeltaDataset. Each delta is routed by the scheme's
// SplitDelta hook to the shards it lands on (local deltas applied through
// the scheme's incremental form, exactly as an unsharded store would), and
// the cross-shard summary is maintained by UpdateSummary (with derived
// state like the reachability overlay closure rebuilt once per batch by
// FinishSummary, reading the staged post-delta shard answerers, and the
// view — for reachability the portal reach rows — rebuilt once after it).
// The commit swaps per-shard strings, answerers, summary, view, and version
// together under the writer lock. The delta log records the original
// (top-level) deltas, so replay re-routes them through this same path.
//
// Schemes whose sharded form has no delta routing (SplitDelta == nil)
// refuse cleanly; the HTTP layer surfaces that as a 409.
func (ss *ShardedStore) Stage(ctx context.Context, inc *core.IncrementalScheme, deltas [][]byte) (func(version uint64), error) {
	if ss.Sharding.SplitDelta == nil {
		return nil, fmt.Errorf("shard: scheme %s has no sharded delta routing; re-register unsharded to maintain it",
			ss.Scheme.Name())
	}
	n := len(ss.Stores)
	pending := make([][]byte, n)
	for i, st := range ss.Stores {
		pending[i], _ = st.View()
	}
	// Summary and view are only written by maintainers (serialized on
	// Maint().Mu), so reading them here without ss.mu is ordered with every
	// past commit.
	summary := ss.Summary
	// SplitDelta receives the committed view — its contract only depends on
	// delta-invariant summary state (vertex universe, local relabelling),
	// so the batch needs no summary decode of its own.
	cur := ss.pin()
	if cur.err != nil {
		return nil, fmt.Errorf("shard: prepare summary: %w (nothing applied)", cur.err)
	}
	touched := make([]bool, n)
	for di, delta := range deltas {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("shard: delta %d: %w (nothing applied)", di, err)
		}
		locals, err := ss.Sharding.SplitDelta(delta, ss.Asn, cur.Answerer)
		if err != nil {
			return nil, fmt.Errorf("shard: delta %d: %w (nothing applied)", di, err)
		}
		for s, lds := range locals {
			if s < 0 || s >= n {
				return nil, fmt.Errorf("shard: delta %d routed to shard %d out of range [0,%d) (nothing applied)", di, s, n)
			}
			if len(lds) > 0 {
				touched[s] = true
			}
			for _, ld := range lds {
				if pending[s], err = inc.ApplyDelta(pending[s], ld); err != nil {
					return nil, fmt.Errorf("shard: delta %d on shard %d: %w (nothing applied)", di, s, err)
				}
			}
		}
		if ss.Sharding.UpdateSummary != nil {
			if summary, err = ss.Sharding.UpdateSummary(delta, ss.Asn, summary); err != nil {
				return nil, fmt.Errorf("shard: delta %d: summary: %w (nothing applied)", di, err)
			}
		}
	}
	// Stage the touched shards' prepared answerers outside the
	// reader-blocking lock, so the commit below swaps ⟨Π, version,
	// prepared⟩ per shard without decoding anything while queries wait —
	// concurrently, as Build and LoadShardedFS warm, so PATCH latency grows
	// with the slowest touched shard's decode, not the sum of all n.
	// Untouched shards (pending[i] is still the slice View returned) keep
	// their current Π and its still-valid answerer; only the version
	// advances. Prepare failures are carried into the stores and surface
	// per answer, like the raw path's per-query validation (the
	// maintained bytes are the committed truth). The summary hooks below
	// read the same staged answerers.
	shards := make([]PreparedShard, n)
	var stageWG sync.WaitGroup
	for i := range pending {
		if !touched[i] {
			shards[i].Answerer, shards[i].Err = ss.Stores[i].Prepared()
			continue
		}
		stageWG.Add(1)
		go func(i int) {
			defer stageWG.Done()
			a, err := ss.Scheme.Prepare(pending[i])
			if err != nil {
				shards[i].Err = &store.PrepareError{Err: err}
				return
			}
			shards[i].Answerer = a
		}(i)
	}
	stageWG.Wait()
	// Derived summary state (e.g. the reachability overlay closure) is
	// rebuilt once for the whole batch, not once per delta.
	if ss.Sharding.FinishSummary != nil {
		var err error
		if summary, err = ss.Sharding.FinishSummary(ss.Asn, summary, shards); err != nil {
			return nil, fmt.Errorf("shard: finish summary: %w (nothing applied)", err)
		}
	}
	// The new view (for reachability: the portal reach rows) is derived
	// here, once per batch and still outside the reader-blocking lock.
	view, viewErr := ss.Sharding.prepareView(summary, ss.Asn, shards)
	// Commit: everything swaps inside one writer-lock critical section, so
	// no reader can pair the new summary or shard Π with the old view.
	return func(version uint64) {
		ss.mu.Lock()
		for i, st := range ss.Stores {
			if touched[i] {
				st.ReplacePrepared(pending[i], version, shards[i].Answerer, shards[i].Err)
			} else {
				st.BumpVersion(version)
			}
		}
		ss.Summary = summary
		ss.version = version
		ss.view, ss.viewErr = view, viewErr
		ss.mu.Unlock()
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
	keys, err := sh.Keys(data)
	if err != nil {
		return nil, fmt.Errorf("shard: build %q: keys: %w", id, err)
	}
	asn, err := p.Plan(keys, n)
	if err != nil {
		return nil, fmt.Errorf("shard: build %q: %w", id, err)
	}
	var parts [][]byte
	var summary []byte
	if sh.SplitSummarize != nil {
		parts, summary, err = sh.SplitSummarize(data, asn)
		if err != nil {
			return nil, fmt.Errorf("shard: build %q: split: %w", id, err)
		}
	} else {
		parts, err = sh.Split(data, asn)
		if err != nil {
			return nil, fmt.Errorf("shard: build %q: split: %w", id, err)
		}
		if sh.Summarize != nil {
			summary, err = sh.Summarize(data, asn)
			if err != nil {
				return nil, fmt.Errorf("shard: build %q: summarize: %w", id, err)
			}
		}
	}
	if len(parts) != n {
		return nil, fmt.Errorf("shard: build %q: split produced %d parts, want %d", id, len(parts), n)
	}
	ss := &ShardedStore{
		ID:          id,
		Scheme:      scheme,
		Sharding:    sh,
		Asn:         asn,
		Summary:     summary,
		Stores:      make([]*store.Store, n),
		DataSum:     store.SumData(data),
		Partitioner: p.Name(),
	}
	// Preprocess the parts concurrently: the per-part PTIME cost is the
	// thing sharding scales out.
	var wg sync.WaitGroup
	errs := make([]error, n)
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
			ss.Stores[i] = &store.Store{
				ID:      fmt.Sprintf("%s/shard%d", id, i),
				Scheme:  scheme,
				Prep:    pd,
				DataSum: store.SumData(parts[i]),
			}
			// Each shard's Π decodes into its prepared form inside the same
			// per-shard goroutine, so warm-up parallelizes with preprocessing.
			warmStart := obs.Start()
			ss.Stores[i].Warm()
			obsWarm.Since(warmStart)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// The summary view (reachability: the portal reach rows) is part of
	// registration, not of the first query. A failure is sticky per answer,
	// like a member store's failed Prepare.
	ss.refreshView()
	return ss, nil
}
