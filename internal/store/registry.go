package store

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"pitract/internal/core"
	"pitract/internal/obs"
	"pitract/internal/schemes"
)

// Stage histograms and counters for the registration/maintenance path,
// resolved once at init so the hot paths never touch the registry map.
var (
	obsPreprocess   = obs.Stage(obs.StagePreprocess)
	obsSnapshotLoad = obs.Stage(obs.StageSnapshotLoad)
	obsSnapshotSave = obs.Stage(obs.StageSnapshotSave)
	obsWarm         = obs.Stage(obs.StageWarm)

	obsPreprocessTotal = obs.Default.Counter("pitract_preprocess_total",
		"Scheme Preprocess runs across all registries in this process.")
	obsSnapshotLoadTotal = obs.Default.Counter("pitract_snapshot_loads_total",
		"Stores reloaded from snapshots instead of preprocessed.")
	obsDeltasTotal = obs.Default.Counter("pitract_deltas_applied_total",
		"Deltas applied through incremental maintenance.")
	obsDeltasDeletedTotal = obs.Default.Counter("pitract_deltas_deleted_total",
		"Delete-kind deltas applied through incremental maintenance.")
)

// Dataset is anything the registry can serve queries from: a plain Store
// (one preprocessed artifact), a composite such as internal/shard's
// ShardedStore (n per-shard artifacts behind one catalog entry), or either
// behind the answer cache (NewCachedDataset). Answering is one seam — Ask
// and AskBatch, with the context and the Mode as arguments and the version
// in the result — identical for every kind; Answer and AnswerBatch are its
// background-context, Exact-mode faces. The answer-path methods must be
// safe for concurrent use; the descriptive methods must be cheap and never
// block. Mutation is a seam of its own: a dataset that can be maintained in
// place is also a DeltaDataset (maintain.go).
type Dataset interface {
	// DatasetID is the registry identifier the dataset was registered under.
	DatasetID() string
	// SchemeName names the scheme that preprocessed — and answers against —
	// the dataset.
	SchemeName() string
	// DataDigest is the SHA-256 of the raw data the dataset was built from;
	// re-registration uses it to refuse serving a stale Π(D) as fresh.
	DataDigest() DataChecksum
	// PrepBytes reports the total size of the preprocessed artifact(s).
	PrepBytes() int
	// SnapshotBytes reports the total encoded size of the dataset's
	// snapshot artifact(s) at its current version — the on-disk footprint
	// /v1/stats sets against PrepBytes.
	SnapshotBytes() int
	// ShardCount reports how many preprocessed stores back the dataset
	// (1 for a plain Store).
	ShardCount() int
	// WasLoaded reports whether the dataset was reloaded from snapshots
	// instead of freshly preprocessed.
	WasLoaded() bool
	// Version is the dataset's monotonic maintenance version: 0 as
	// registered, bumped once per applied delta (see Registry.ApplyDelta).
	// Restarts restore it from the snapshot, so it never goes backwards
	// over the lifetime of the persisted dataset.
	Version() uint64
	// CanDegrade reports whether Degraded asks can be answered — the
	// scheme declares a cheaper fallback answerer.
	CanDegrade() bool
	// RetryPrepare republishes the committed Π at its version with the
	// prepared answerer(s), successful or failed, built again — the hook a
	// breaker's half-open probe uses to retry a transient Prepare failure. It
	// never replaces a newer commit.
	RetryPrepare() error
	// Ask decides one query in the given mode. The verdict carries the
	// maintenance version of the Π that decided it, read together with the
	// answerer. A cancelled ctx returns its error before any probe; a
	// Degraded ask of a dataset that cannot degrade is ErrNoFallback.
	Ask(ctx context.Context, q []byte, mode Mode) (Verdict, error)
	// AskBatch answers queries concurrently through worker pools
	// (parallelism <= 0 selects GOMAXPROCS), all against the one Π at the
	// returned version, consulting ctx before every probe. The first error
	// by lowest query index aborts the batch, reported as
	// "scheme <name>: batch query <index>: <cause>".
	AskBatch(ctx context.Context, queries [][]byte, parallelism int, mode Mode) (Verdicts, error)
	// Answer is Ask in Exact mode under a background context.
	Answer(q []byte) (bool, error)
	// AnswerBatch is AskBatch in Exact mode under a background context.
	AnswerBatch(queries [][]byte, parallelism int) ([]bool, error)
}

// Registry maps dataset IDs to preprocessed datasets. Registering a dataset
// preprocesses it exactly once — concurrent registrations of the same ID
// share one build and all receive the same memoized dataset — and, when the
// registry has a data directory, persists the result as snapshot file(s) so
// a restarted process reloads Π(D) instead of recomputing it.
//
// Plain (single-store) registration goes through Register; composite
// datasets (sharded stores) plug in through RegisterDataset, which carries
// the same one-catalog-entry, one-build-per-ID guarantee for any Dataset
// implementation.
//
// The registry is safe for concurrent use; Answer paths never hold the
// registry lock (the preprocessed bytes are immutable).
type Registry struct {
	med *Medium // nil or zero Dir = memory-only, no persistence

	mu      sync.Mutex
	entries map[string]*regEntry
	// breakerCfg (guarded by mu) configures the breaker every new catalog
	// entry is created with.
	breakerCfg BreakerConfig

	preprocessCount atomic.Int64
	loadCount       atomic.Int64
	deltaCount      atomic.Int64
	deleteCount     atomic.Int64
	replayCount     atomic.Int64
	quarantineCount atomic.Int64
}

// regEntry is a future for one dataset: done closes once ds/err are set,
// so concurrent registrations of the same ID wait instead of preprocessing
// again.
type regEntry struct {
	done chan struct{}
	ds   Dataset
	err  error
	// abandoned (guarded by the registry mutex) marks a build whose
	// admitting registration ran out of budget: the build finishes — it
	// cannot be interrupted mid-Preprocess — but its result is dropped
	// instead of memoized, so a budget-exceeded registration leaves no
	// catalog entry.
	abandoned bool
	// breaker (guarded by the registry mutex) is the dataset's health state
	// machine. It lives exactly as long as the entry: created when the
	// registration starts — so a quarantine during its recovery is recorded —
	// and gone with a failed or abandoned one.
	breaker *Breaker
}

// settled reports whether e's registration completed successfully, without
// waiting for one still in flight — so listings, stats and health never
// block behind a long Preprocess.
func (e *regEntry) settled() bool {
	select {
	case <-e.done:
		return e.err == nil
	default: // still preprocessing
		return false
	}
}

// NewRegistry returns a registry persisting snapshots (and write-ahead
// delta logs) under dir on the real disk; dir == "" keeps every store in
// memory only.
func NewRegistry(dir string) *Registry {
	return NewRegistryMedium(DiskMedium(dir))
}

// NewRegistryMedium is NewRegistry on an explicit persistence medium — the
// seam the crash-injection harness uses to run the full durable protocol
// (snapshots, delta logs, checkpoints, replay) against a fault-injecting
// file layer. A nil med is memory-only.
func NewRegistryMedium(med *Medium) *Registry {
	if med == nil {
		med = &Medium{}
	}
	return &Registry{med: med, entries: map[string]*regEntry{}}
}

// SetCheckpointEvery sets how many delta-log records may accumulate per
// dataset before its snapshot is rewritten and the log truncated (values
// < 1 mean 1 — checkpoint on every PATCH). Set it before serving traffic;
// it is not synchronized against in-flight maintenance.
func (r *Registry) SetCheckpointEvery(n int) { r.med.CheckpointEvery = n }

// Dir reports the snapshot directory ("" when memory-only).
func (r *Registry) Dir() string { return r.med.Dir }

// SnapshotPath maps a dataset ID to its snapshot file under dir. IDs are
// arbitrary strings, so the filename is the ID path-escaped (keeps readable
// IDs readable, makes hostile ones safe). Store.Checkpoint writes exactly
// the file a restarted registry will reload.
func SnapshotPath(dir, id string) string {
	return filepath.Join(dir, url.PathEscape(id)+".pitract")
}

// RegisterDataset returns the dataset registered under id, building it on
// first call. compat is consulted when id already has a completed entry: it
// decides whether the existing dataset satisfies this registration (nil
// accepts anything). build runs at most once per id across any number of
// concurrent registrations; a failed or panicking build is not memoized, so
// a later corrected attempt can retry.
//
// This is the generic seam plain Register and internal/shard's sharded
// registration both ride: one catalog entry per ID, one build per ID, and
// Get/Answer paths that never observe a half-built dataset.
func (r *Registry) RegisterDataset(id string, compat func(Dataset) error, build func() (Dataset, error)) (Dataset, error) {
	return r.RegisterDatasetContext(context.Background(), id, compat, build)
}

// RegisterDatasetContext is RegisterDataset under a request budget: when
// ctx expires before the build completes, the call returns a *BudgetError
// and the in-flight build is abandoned — it runs to completion (Preprocess
// cannot be interrupted mid-flight) but its result is dropped instead of
// memoized, so a budget-exceeded registration leaves no catalog entry and
// the id stays free for a retried (or better-budgeted) attempt. A waiter
// whose ctx expires while someone else's build is in flight gives up
// without abandoning that build — the budget belongs to the registration
// that started it.
func (r *Registry) RegisterDatasetContext(ctx context.Context, id string, compat func(Dataset) error, build func() (Dataset, error)) (Dataset, error) {
	if build == nil {
		return nil, fmt.Errorf("store: register %q: nil build function", id)
	}
	if err := ctx.Err(); err != nil {
		return nil, &BudgetError{Op: "register", ID: id, Err: err}
	}
	r.mu.Lock()
	if e, ok := r.entries[id]; ok {
		r.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, &BudgetError{Op: "register", ID: id, Err: ctx.Err()}
		}
		if e.err != nil {
			return nil, e.err
		}
		if compat != nil {
			if err := compat(e.ds); err != nil {
				return nil, err
			}
		}
		return e.ds, nil
	}
	e := &regEntry{done: make(chan struct{}), breaker: NewBreaker(r.breakerCfg)}
	r.entries[id] = e
	r.mu.Unlock()

	go r.runBuild(e, id, build)
	select {
	case <-e.done:
		return e.ds, e.err
	case <-ctx.Done():
		r.abandon(e, id)
		return nil, &BudgetError{Op: "register", ID: id, Err: ctx.Err()}
	}
}

// runBuild executes one registration's build and commits (or drops) its
// result. The deferred block must run even if build panics (a scheme
// Preprocess on hostile data can, e.g. makeslice out of range): otherwise
// e.done is never closed and every future Register/Get for this id blocks
// forever. The panic is converted to an error so one bad registration
// cannot wedge the dataset or kill a serving process. The commit decision
// (memoize vs drop) and close(e.done) happen under the registry mutex, so
// it cannot race an abandon from the admitting registration's expired
// budget.
func (r *Registry) runBuild(e *regEntry, id string, build func() (Dataset, error)) {
	defer func() {
		if p := recover(); p != nil {
			e.err = fmt.Errorf("store: register %q: build panicked: %v", id, p)
		}
		r.mu.Lock()
		if e.err != nil {
			// Failed registrations are not memoized: drop the entry so a
			// later attempt (fixed data, fixed scheme) can retry.
			e.ds = nil
			delete(r.entries, id)
		} else if e.abandoned {
			// The admitting registration ran out of budget: the result is
			// dropped, not memoized. Waiters already blocked on e.done still
			// receive the built dataset — only the catalog forgets it.
			delete(r.entries, id)
		}
		close(e.done)
		r.mu.Unlock()
	}()
	e.ds, e.err = build()
}

// abandon marks e's build as over budget. Under the registry mutex either
// the build has not committed yet — the abandoned flag makes its commit
// drop the entry — or it already has, in which case the entry is evicted
// here, so in every interleaving the budget-exceeded registration leaves no
// catalog entry.
func (r *Registry) abandon(e *regEntry, id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case <-e.done:
		if e.err == nil {
			if cur, ok := r.entries[id]; ok && cur == e {
				delete(r.entries, id)
			}
		}
	default:
		e.abandoned = true
	}
}

// Register returns the preprocessed store for id, creating it on first
// call: reload from a fresh snapshot if the registry is persistent and one
// matches (same scheme, same data digest), otherwise run scheme.Preprocess
// and persist the result. Re-registering an existing id with the same
// scheme and the same data returns the memoized store; a different scheme
// name, a different data digest, or an id held by a sharded dataset is an
// error rather than a silent answer-path swap or a stale Π(D) served as
// fresh.
func (r *Registry) Register(id string, scheme *core.Scheme, data []byte) (*Store, error) {
	return r.RegisterContext(context.Background(), id, scheme, data)
}

// RegisterContext is Register under a request budget: when ctx expires
// before preprocessing completes the call returns a *BudgetError and the
// build is abandoned — it finishes but is not memoized, so no catalog
// entry remains (see RegisterDatasetContext). The HTTP layer threads each
// registration request's deadline through here.
func (r *Registry) RegisterContext(ctx context.Context, id string, scheme *core.Scheme, data []byte) (*Store, error) {
	if scheme == nil {
		return nil, fmt.Errorf("store: register %q: nil scheme", id)
	}
	sum := SumData(data)
	ds, err := r.RegisterDatasetContext(ctx, id,
		func(d Dataset) error {
			if d.SchemeName() != scheme.Name() {
				return fmt.Errorf("store: dataset %q already registered with scheme %s (got %s)",
					id, d.SchemeName(), scheme.Name())
			}
			if d.DataDigest() != sum {
				return fmt.Errorf("store: dataset %q already registered with different data (re-register under a new id)", id)
			}
			// A ShardedStore with n=1 also reports ShardCount()==1, so the
			// type check — not the count — decides whether the plain path
			// owns this id.
			if _, ok := d.(*Store); !ok {
				return fmt.Errorf("store: dataset %q is registered sharded (%d shards); re-register through the sharded path",
					id, d.ShardCount())
			}
			return nil
		},
		func() (Dataset, error) {
			ds, err := r.Recover(id,
				func(fsys FS, dir string) (DeltaDataset, error) {
					snap, err := LoadFS(fsys, SnapshotPath(dir, id))
					if err != nil {
						return nil, err
					}
					if snap.SchemeName != scheme.Name() || snap.DataSum != sum {
						return nil, ErrStale
					}
					// A snapshot with Version > 0 is the maintained
					// Π(D ⊕ ∆D…): resuming from it (not from a re-preprocess
					// of D) is the whole point of persisting maintenance.
					st := newStore(id, scheme, sum, snap.Prep, snap.Version, true)
					// A Π an earlier version wrote in a layout this one no
					// longer reads passes every check above and then refuses
					// every answer, and re-registering would load it again:
					// it is an old format, quarantined and rebuilt like a
					// snapshot with an old magic.
					var le *core.LayoutError
					if _, err := st.load().forms[Exact](); errors.As(err, &le) {
						return nil, &CorruptArtifactError{Path: SnapshotPath(dir, id), Err: err}
					}
					return st, nil
				},
				func() (DeltaDataset, error) {
					ppStart := obs.Start()
					pd, err := scheme.Preprocess(data)
					if err != nil {
						return nil, fmt.Errorf("store: register %q: preprocess (%s): %w", id, scheme.Name(), err)
					}
					obsPreprocess.Since(ppStart)
					return newStore(id, scheme, sum, pd, 0, false), nil
				})
			if err != nil {
				return nil, err
			}
			// Decode Π into its prepared form — after any replay, which
			// prepares its own — while still inside the one build this
			// registration runs: queries then pay only probes.
			warmStart := obs.Start()
			ds.(*Store).Warm()
			obsWarm.Since(warmStart)
			return ds, nil
		})
	if err != nil {
		return nil, err
	}
	st, ok := ds.(*Store)
	if !ok {
		return nil, fmt.Errorf("store: dataset %q is not a plain store", id)
	}
	return st, nil
}

// ReplayCount reports how many delta-log records this registry has
// replayed over loaded snapshots — non-zero after a restart that recovered
// acknowledged-but-not-checkpointed batches.
func (r *Registry) ReplayCount() int64 { return r.replayCount.Load() }

// NotFoundError reports an ApplyDelta against an id with no completed
// registration — the HTTP layer maps it to 404 where every other delta
// failure is a 409.
type NotFoundError struct{ ID string }

// Error implements error.
func (e *NotFoundError) Error() string { return fmt.Sprintf("store: dataset %q not registered", e.ID) }

// BudgetError reports a registration or maintenance call that ran out of
// its request budget (context deadline or cancellation) before the work
// committed. Nothing was committed under the caller's name: a
// budget-exceeded registration leaves no catalog entry, a budget-exceeded
// delta batch leaves the dataset, its version, and its snapshot untouched.
// The HTTP layer maps it to 503 Service Unavailable where request-shaped
// failures are 4xx — the request was well-formed, the server declined to
// spend more time on it.
type BudgetError struct {
	// Op names the budgeted operation ("register" or "apply delta").
	Op string
	// ID is the dataset the operation addressed.
	ID string
	// Err is the context error that ended the budget (DeadlineExceeded or
	// Canceled).
	Err error
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("store: %s %q: request budget exceeded (%v)", e.Op, e.ID, e.Err)
}

// Unwrap exposes the context error, so errors.Is(err,
// context.DeadlineExceeded) works through the wrapper.
func (e *BudgetError) Unwrap() error { return e.Err }

// PersistError reports that a PATCH or a registration failed on the
// persistence medium — a delta-log append, a first checkpoint, an artifact or
// log that stays unreadable — not because of anything wrong with the request:
// the deltas were applicable, the data registrable, and nothing was
// committed. The HTTP layer maps it to 500 where request-shaped failures are
// 409s, so retry and alerting logic can tell a server-side fault apart from a
// conflicting request.
type PersistError struct{ Err error }

// Error implements error.
func (e *PersistError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying I/O error.
func (e *PersistError) Unwrap() error { return e.Err }

// ApplyDelta maintains the dataset registered under id in place:
// Π ← Π(D ⊕ ∆D₁ ⊕ … ⊕ ∆Dₖ) through the scheme's incremental form
// (schemes.IncrementalForScheme), applied under the dataset's maintenance
// lock.
// The batch is atomic — every delta commits together with a bumped
// monotonic version and an atomically rewritten snapshot (when the
// registry is persistent), or nothing changes at all: a malformed delta, a
// scheme without an incremental form, or a sharded dataset without delta
// routing each leave the registry entry, the served Π, and the on-disk
// snapshot exactly as they were. Returns the dataset's new maintenance
// version.
//
// Concurrent queries are never blocked on maintenance — staging, I/O or the
// commit itself — and never observe a torn Π: every dataset kind answers
// from one immutable committed value loaded through an atomic pointer, and
// the commit stores the next one.
func (r *Registry) ApplyDelta(id string, deltas [][]byte) (uint64, error) {
	return r.ApplyDeltaContext(context.Background(), id, deltas)
}

// ApplyDeltaContext is ApplyDelta under a request budget: ctx is threaded
// into ApplyDeltas, which checks it between deltas — a batch
// that runs past its deadline aborts with a *BudgetError and nothing
// applied (the served Π, the version, and the snapshot are untouched). The
// HTTP PATCH handler threads each request's deadline through here.
func (r *Registry) ApplyDeltaContext(ctx context.Context, id string, deltas [][]byte) (uint64, error) {
	ds, ok := r.GetDataset(id)
	if !ok {
		return 0, &NotFoundError{ID: id}
	}
	if len(deltas) == 0 {
		return ds.Version(), fmt.Errorf("store: dataset %q: empty delta batch", id)
	}
	inc := schemes.IncrementalForScheme(ds.SchemeName())
	if inc == nil {
		return ds.Version(), fmt.Errorf("store: dataset %q: scheme %s has no incremental form (maintainable: %v)",
			id, ds.SchemeName(), schemes.MaintainableSchemes())
	}
	dd, ok := ds.(DeltaDataset)
	if !ok {
		return ds.Version(), fmt.Errorf("store: dataset %q does not support in-place maintenance", id)
	}
	v, err := ApplyDeltas(ctx, dd, inc, deltas, r.med)
	if err != nil {
		var be *BudgetError
		if errors.As(err, &be) {
			return v, err
		}
		if ce := ctx.Err(); ce != nil && errors.Is(err, ce) {
			return v, &BudgetError{Op: "apply delta to", ID: id, Err: ce}
		}
		return v, fmt.Errorf("store: apply delta to %q: %w", id, err)
	}
	r.deltaCount.Add(int64(len(deltas)))
	obsDeltasTotal.Add(int64(len(deltas)))
	deleted := int64(0)
	for _, d := range deltas {
		if core.DeltaKindOf(d) == core.DeltaDelete {
			deleted++
		}
	}
	if deleted > 0 {
		r.deleteCount.Add(deleted)
		obsDeltasDeletedTotal.Add(deleted)
	}
	return v, nil
}

// DeltaCount reports how many deltas this registry has applied across all
// datasets — the counter /v1/stats serves as deltas_applied, alongside
// PreprocessCount and LoadCount. It counts every ApplyDelta caller, HTTP
// or library-side.
func (r *Registry) DeltaCount() int64 { return r.deltaCount.Load() }

// DeleteCount reports how many of the applied deltas were delete-kind —
// the dynamism counter /v1/stats serves as deltas_deleted.
func (r *Registry) DeleteCount() int64 { return r.deleteCount.Load() }

// Get returns the plain store registered under id, if any. Registrations
// still in flight count as present: Get waits for them, so a Get racing a
// Register never observes a half-built store. IDs registered through the
// sharded path are not plain stores and report false; use GetDataset for
// the scheme-agnostic answer path.
func (r *Registry) Get(id string) (*Store, bool) {
	ds, ok := r.GetDataset(id)
	if !ok {
		return nil, false
	}
	st, ok := ds.(*Store)
	return st, ok
}

// GetDataset returns the dataset registered under id — plain or sharded —
// waiting out a registration still in flight.
func (r *Registry) GetDataset(id string) (Dataset, bool) {
	ds, _, ok := r.Serving(id)
	return ds, ok
}

// Serving is GetDataset for the answer path: the dataset together with its
// health breaker, both read from the one catalog entry in one critical
// section.
func (r *Registry) Serving(id string) (Dataset, *Breaker, bool) {
	r.mu.Lock()
	e, ok := r.entries[id]
	var br *Breaker
	if ok {
		br = e.breaker
	}
	r.mu.Unlock()
	if !ok {
		return nil, nil, false
	}
	<-e.done
	if e.err != nil {
		return nil, nil, false
	}
	return e.ds, br, true
}

// IDs returns the completed dataset IDs, sorted. Registrations still in
// flight are omitted rather than waited for, so listing (and the server's
// health endpoint) never blocks behind a long Preprocess.
func (r *Registry) IDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, 0, len(r.entries))
	for id, e := range r.entries {
		if e.settled() {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Len reports the number of successfully registered datasets. Unlike IDs it
// allocates nothing — it sits on the /v1/stats hot path.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.entries {
		if e.settled() {
			n++
		}
	}
	return n
}

// ArtifactStats sums, over completed datasets, the in-memory preprocessed
// artifact bytes (PrepBytes) and the encoded snapshot bytes
// (SnapshotBytes). Registrations still in flight are skipped, as in Len, so
// stats never block behind a Preprocess.
func (r *Registry) ArtifactStats() (prepBytes, snapshotBytes int64) {
	for _, ds := range r.completed() {
		prepBytes += int64(ds.PrepBytes())
		snapshotBytes += int64(ds.SnapshotBytes())
	}
	return prepBytes, snapshotBytes
}

// ArtifactBytes is the in-memory half of ArtifactStats — PrepBytes summed
// over completed datasets, with no snapshot encoding — cheap enough for a
// gauge callback scraped on every /metrics hit.
func (r *Registry) ArtifactBytes() int64 {
	var total int64
	for _, ds := range r.completed() {
		total += int64(ds.PrepBytes())
	}
	return total
}

// completed returns the datasets of every completed, successful
// registration, skipping (not waiting for) builds still in flight.
func (r *Registry) completed() []Dataset {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Dataset, 0, len(r.entries))
	for _, e := range r.entries {
		if e.settled() && e.ds != nil {
			out = append(out, e.ds)
		}
	}
	return out
}

// PreprocessCount reports how many Preprocess calls this registry has run —
// the preprocess-once contract's observable: it stays at one per distinct
// (unsharded) dataset no matter how many registrations or
// restarts-with-snapshots happen. A sharded registration counts one call
// per shard preprocessed.
func (r *Registry) PreprocessCount() int64 { return r.preprocessCount.Load() }

// LoadCount reports how many stores were reloaded from snapshots instead of
// preprocessed (one per shard for sharded datasets).
func (r *Registry) LoadCount() int64 { return r.loadCount.Load() }
