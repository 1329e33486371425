// Package pitract is the public API of the Π-tractability library, a full
// implementation of Fan, Geerts & Neven, "Making Queries Tractable on Big
// Data with Preprocessing" (VLDB 2013).
//
// The library has three layers:
//
//   - The formal framework (Definitions 1–8 of the paper): languages of
//     pairs over Σ*, factorizations Υ = (π1, π2, ρ), Π-tractability schemes
//     (PTIME preprocessing + NC answering), NC-factor reductions and
//     F-reductions, the Lemma 2 padding composition and the Lemma 3 scheme
//     transport.
//
//   - Executable case studies (§4 of the paper): point/range selection with
//     index preprocessing, list membership, reachability with a closure
//     matrix, breadth-depth search under both Figure-1 factorizations, the
//     circuit value problem under the Corollary-6 and Theorem-9
//     factorizations, and the full P → CVP → BDS completeness chain built
//     from a Turing-machine simulator and a Cook–Levin tableau compiler.
//
//   - An experiment harness regenerating every figure, example and case
//     study of the paper as a measured table (see Experiments and
//     RunExperiment, or the pitract CLI).
//
// On top of the reproduction sits a concurrent execution engine: the PRAM
// simulator has a goroutine-parallel executor that is observationally
// identical to the sequential oracle (WithPRAMWorkers), and every scheme's
// Answer is safe from many goroutines after one preprocessing pass, so
// batches of queries can be served concurrently from one preprocessed
// store (AnswerBatch; experiments X1 and X2 measure both).
//
// The serving subsystem makes Π(D) a durable artifact and puts it on the
// network: OpenStore/StoreRegistry persist preprocessed stores as
// versioned, checksummed snapshots (computed once, reloaded across process
// restarts), and NewServer exposes a registry as an HTTP JSON API — the
// `pitract serve` subcommand. What each serving layer below costs is
// measured by one instrument, the bench/ module (go run -C bench .), not by
// an experiment; docs/ARCHITECTURE.md maps each question to its workload
// and metric rows.
//
// On top of that sits horizontal scaling: a dataset can be partitioned
// across n preprocessed parts (BuildShardedStore, RegisterSharded, the
// server's ?shards=N parameter, the CLI's -shards flag) with hash or range
// partitioning. Queries route to the shard owning their answer, fan out to
// every shard with the verdicts ORed, or — reachability — answer through a
// view prepared over all of them (per-vertex portal reach rows);
// differential tests pin sharded answers identical to unsharded ones.
//
// Registered datasets are live-updatable (§1 justification (3)): for
// schemes with an incremental form (IncrementalForScheme),
// StoreRegistry.ApplyDelta — and HTTP PATCH /v1/datasets/{id} — maintains
// Π(D ⊕ ∆D) in place instead of re-preprocessing, bumps a monotonic
// dataset version reported in every query and info response, and appends
// the batch to a write-ahead delta log before it commits (the snapshot is
// rewritten on a checkpoint cadence), so restarts resume from the
// maintained Π at the acknowledged version.
// Sharded datasets route each delta to the shards it lands on (key batches
// split by partitioner; reachability edge inserts update the owning
// shard's closure and rebuild the portal overlay). A maintained-vs-rebuilt
// differential suite pins ApplyDelta equivalent to preprocessing the
// updated data from scratch.
//
// The hot-path query engine keeps the per-query cost down to the probe:
// every store decodes Π once into a typed prepared answerer
// (PreparedScheme/Answerer — closure matrices as word-packed bitsets,
// sorted files as decoded arrays, the BFS baseline as a frozen two-way
// CSR). Every dataset kind, plain or sharded, serves one immutable
// committed value — ⟨Π, version, answerer⟩ — behind an atomic pointer: a
// query loads it once and takes no lock, a maintenance commit stores the
// next one. An optional answer cache (NewAnswerCache, NewCachedDataset,
// Server.SetAnswerCache, `pitract serve -cache-bytes`) memoizes hot
// ⟨dataset, version, query⟩ verdicts in a sharded byte-budgeted LRU with
// singleflight coalescing — version-keyed, so PATCH invalidates for free.
// The server fronts only schemes that declare a per-query traversal
// (Scheme.Traversal): an index probe of Π is cheaper than a cache lookup.
// Both paths are differentially pinned to the raw Answer oracle.
//
// An observability layer watches all of it without getting in its way:
// every serve-path stage (admission, cache lookup, shard fan-out/merge,
// preprocess, snapshot I/O, PATCH apply/persist) records into lock-free
// log-bucketed latency histograms in a process-wide metric registry
// (ObsDefaultRegistry), rendered as Prometheus text exposition by GET
// /metrics, summarized as per-scheme and per-stage percentiles in
// /v1/stats (with uptime and build info), and traced per request via
// X-Request-ID and structured slog request/slow-query logging (`pitract
// serve -log-level/-log-format/-slow-query-ms`; -pprof-addr serves
// net/http/pprof on its own listener). SetMetricsEnabled(false) is the
// kill switch (the benchmark's obs.overhead_pct row is its cost).
//
// The serving path degrades gracefully instead of falling over: every
// query can carry a deadline (AskWithin, `pitract serve
// -query-budget-ms`; overruns are abandoned with 504 and the late worker's
// result dropped), each dataset is fronted by a health circuit breaker
// (HealthBreaker — repeated serve-path failures trip it open and traffic
// is refused fast with 503 + Retry-After until a backoff-paced probe
// heals it), corrupt snapshots and delta logs are quarantined aside
// (QuarantinePath) and rebuilt from source, and schemes with a declared
// cheaper fallback keep answering exactly in degraded mode while
// unhealthy. Each of those behaviours is pinned by a deterministic test
// over a live test server or a fault-injecting medium
// (internal/store/faultfs).
//
// See README.md for a tour, docs/ARCHITECTURE.md for the layer map,
// docs/API.md for the HTTP reference, and docs/perf/ for the serving
// benchmark's before/after records.
package pitract

import (
	"fmt"
	"io"

	"pitract/internal/cache"
	"pitract/internal/circuit"
	"pitract/internal/compress"
	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/harness"
	"pitract/internal/inc"
	"pitract/internal/obs"
	"pitract/internal/pram"
	"pitract/internal/relation"
	"pitract/internal/schemes"
	"pitract/internal/server"
	"pitract/internal/shard"
	"pitract/internal/store"
	"pitract/internal/tm"
	"pitract/internal/topk"
	"pitract/internal/views"
)

// --- the formal framework (internal/core) -----------------------------------

type (
	// Language is a decidable language of pairs S ⊆ Σ*×Σ*, the paper's
	// representation of a Boolean query class.
	Language = core.Language
	// LanguageFunc adapts a decision function to Language.
	LanguageFunc = core.LanguageFunc
	// Problem is a decision problem L ⊆ Σ* with a reference membership test.
	Problem = core.Problem
	// Factorization is Υ = (π1, π2, ρ): it splits instances into data and
	// query parts.
	Factorization = core.Factorization
	// Scheme witnesses Π-tractability: PTIME Preprocess + NC Answer
	// (Definition 1).
	Scheme = core.Scheme
	// Pair is one ⟨D, Q⟩ instance.
	Pair = core.Pair
	// Reduction is an (α, β) map between languages of pairs (≤NC_F, and the
	// map component of ≤NC_fa).
	Reduction = core.Reduction
	// FactorReduction is a full NC-factor reduction with both factorizations
	// (Definition 4).
	FactorReduction = core.FactorReduction
	// Registry collects query classes for the Figure 2 landscape.
	Registry = core.Registry
	// Entry is one registry row.
	Entry = core.Entry
	// Class places a query class in the paper's landscape.
	Class = core.Class
	// Measurement is one (size, cost) sample for growth classification.
	Measurement = core.Measurement
	// Fit is a fitted growth family with its log-log slope.
	Fit = core.Fit
	// Growth labels a growth family (constant / polylog / polynomial).
	Growth = core.Growth
	// FuncScheme witnesses Π-tractability of a function problem (§8(3)
	// extension).
	FuncScheme = core.FuncScheme
	// FuncLanguage is a reference function F: Σ*×Σ* → Σ*.
	FuncLanguage = core.FuncLanguage
	// RewritingScheme is the revised Definition 1 with a query-rewriting
	// function λ.
	RewritingScheme = core.RewritingScheme
	// IncrementalScheme extends a Scheme with maintenance of Π(D ⊕ ∆D).
	IncrementalScheme = core.IncrementalScheme
	// Answerer is one prepared Π(D): the scheme's typed, decoded-once
	// in-memory form, whose Answer does only the probe (the hot-path seam
	// every Store answers through).
	Answerer = core.Answerer
	// PreparedScheme is the prepared-answerer seam: anything that decodes
	// one Π(D) into an Answerer. Every *Scheme implements it — natively
	// via its typed prepared form, or through a raw-Answer fallback.
	PreparedScheme = core.PreparedScheme
)

// Landscape classes (Figure 2).
const (
	// ClassNC: answerable in NC with no preprocessing.
	ClassNC = core.ClassNC
	// ClassPiT0Q: Π-tractable with its natural factorization.
	ClassPiT0Q = core.ClassPiT0Q
	// ClassPiTQ: can be made Π-tractable by re-factorization (= P,
	// Corollary 6).
	ClassPiTQ = core.ClassPiTQ
	// ClassP: PTIME, not known (or impossible unless P=NC) to be
	// Π-tractable.
	ClassP = core.ClassP
	// ClassNPComplete: not Π-tractable unless P = NP (Corollary 7).
	ClassNPComplete = core.ClassNPComplete
)

// Growth families.
const (
	// GrowthConstant: cost independent of input size.
	GrowthConstant = core.GrowthConstant
	// GrowthPolylog: cost polynomial in log n — the NC answering budget.
	GrowthPolylog = core.GrowthPolylog
	// GrowthPolynomial: cost n^a; preprocessing did not help.
	GrowthPolynomial = core.GrowthPolynomial
)

// Framework functions.
var (
	// PadPair encodes (d, q) as one string — the paper's "@" padding.
	PadPair = core.PadPair
	// UnpadPair splits a padded string back into (d, q).
	UnpadPair = core.UnpadPair
	// PairLanguage builds S(L,Υ) from a problem and a factorization
	// (Proposition 1).
	PairLanguage = core.PairLanguage
	// IdentityFactorization is the π1(x)=π2(x)=x factorization from the
	// Theorem 5 proof.
	IdentityFactorization = core.IdentityFactorization
	// EmptyDataFactorization is Theorem 9's Υ0: nothing to preprocess.
	EmptyDataFactorization = core.EmptyDataFactorization
	// PaddedFactorization is the Lemma 2 padding construction.
	PaddedFactorization = core.PaddedFactorization
	// TransportScheme carries Π-tractability backwards along a reduction
	// (Lemma 3 / Lemma 8).
	TransportScheme = core.TransportScheme
	// Compose composes reductions across mismatched middle factorizations
	// (Lemma 2).
	Compose = core.Compose
	// Classify fits measured costs against polylog vs polynomial growth.
	Classify = core.Classify
)

// --- concurrent batch answering -----------------------------------------------

// AnswerBatch answers a batch of queries concurrently against one
// preprocessed store, using a bounded worker pool. It is the entry point
// for the preprocess-once/serve-many mode: Π(D) is immutable, so any
// number of goroutines may answer against it at once (every scheme obeys
// the concurrency contract documented on Scheme). parallelism <= 0 selects
// GOMAXPROCS. Results come back in query order; the first failing query
// aborts the batch.
//
// Scheme.AnswerBatch is the same operation as a method; this function
// exists so the batch entry point is discoverable at the package top
// level.
func AnswerBatch(s *Scheme, pd []byte, queries [][]byte, parallelism int) ([]bool, error) {
	return s.AnswerBatch(pd, queries, parallelism)
}

// ApplyBatch is AnswerBatch for function schemes (RMQ, LCA): concurrent
// Apply over one preprocessed store, outputs in query order.
func ApplyBatch(s *FuncScheme, pd []byte, queries [][]byte, parallelism int) ([][]byte, error) {
	return s.ApplyBatch(pd, queries, parallelism)
}

// SetExperimentParallelism sets the worker count used by the parallel
// experiments (X1, X2) — the library face of the CLI's -parallel flag.
// n <= 0 restores the GOMAXPROCS default.
var SetExperimentParallelism = harness.SetParallelism

// ExperimentParallelism reports the effective worker count for the
// parallel experiments.
var ExperimentParallelism = harness.Parallelism

// --- persistence and serving (internal/store, internal/server) -----------------

type (
	// Store is one preprocessed store: a scheme plus its immutable Π(D),
	// ready to answer from any number of goroutines.
	Store = store.Store
	// StoreSnapshot is the versioned, checksummed on-disk form of a
	// preprocessed store. (Distinct from the Figure 2 Registry type above:
	// that registry catalogues query classes, this subsystem catalogues
	// preprocessed datasets.)
	StoreSnapshot = store.Snapshot
	// StoreRegistry maps dataset IDs to preprocessed stores, preprocessing
	// exactly once per dataset and optionally persisting snapshots.
	StoreRegistry = store.Registry
	// Server serves a StoreRegistry over an HTTP JSON API (see the pitract
	// CLI's serve subcommand and examples/serve).
	Server = server.Server
	// ServerLimits configures a Server's serving envelope — body/batch
	// caps, concurrency admission (429 + Retry-After), and registration/
	// maintenance wall budgets (503, no catalog side effects). Install
	// with Server.SetLimits; the CLI face is `pitract serve`'s -max-* and
	// -register-budget flags.
	ServerLimits = server.Limits
	// StoreBudgetError is the error a registry returns when a
	// RegisterContext or ApplyDeltaContext call outruns its context: the
	// work is abandoned (no catalog entry; nothing applied) and the id
	// stays free for a retried attempt.
	StoreBudgetError = store.BudgetError
	// StoreDeadlineError is the error an answer path returns when a query
	// or batch outruns its context deadline (`pitract serve
	// -query-budget-ms`; HTTP 504): the work is abandoned and its late
	// result dropped.
	StoreDeadlineError = store.DeadlineError
	// StorePrepareError wraps a failed prepared-answerer build (a
	// scheme's Prepare failing on its Π) so serving layers can classify
	// it as a dataset-health failure; the message bytes are the
	// underlying error's, unchanged. Store.RetryPrepare clears it.
	StorePrepareError = store.PrepareError
	// StoreCorruptArtifactError wraps a snapshot or delta-log read that
	// failed integrity or decode checks — the trigger for quarantine
	// (the artifact is renamed aside with QuarantinePath and rebuilt
	// from source).
	StoreCorruptArtifactError = store.CorruptArtifactError
	// HealthBreaker is one dataset's health circuit breaker: windowed
	// failure counting, healthy → degraded → open transitions, and
	// exponential-backoff half-open probes (see HealthBreakerConfig and
	// StoreRegistry.Breaker).
	HealthBreaker = store.Breaker
	// HealthBreakerConfig tunes a breaker's failure window and backoff;
	// install per registry with StoreRegistry.SetBreakerConfig.
	HealthBreakerConfig = store.BreakerConfig
	// HealthBreakerDecision is one admission verdict from
	// HealthBreaker.Allow.
	HealthBreakerDecision = store.BreakerDecision
	// HealthState is a dataset's health: healthy, degraded, open, or
	// quarantined (rendered per dataset by GET /healthz).
	HealthState = store.HealthState
)

// Dataset health states (see HealthBreaker).
const (
	// HealthHealthy: the dataset is serving normally.
	HealthHealthy = store.HealthHealthy
	// HealthDegraded: recent failures; traffic prefers the declared
	// degraded-mode fallback when the scheme has one.
	HealthDegraded = store.HealthDegraded
	// HealthOpen: the breaker tripped; traffic is refused fast (503 +
	// Retry-After) except backoff-paced probes.
	HealthOpen = store.HealthOpen
	// HealthQuarantined: a persisted artifact failed integrity checks and
	// was renamed aside; the dataset was rebuilt from source.
	HealthQuarantined = store.HealthQuarantined
)

// The answer seam: every Dataset answers through Ask / AskBatch, which take
// the caller's context and an AnswerMode and return the verdict(s) together
// with the maintenance version they were computed at.
type (
	// AnswerMode selects which of a dataset's answerers decides a query.
	AnswerMode = store.Mode
	// Verdict is one answer, the version of the Π that decided it, and
	// whether the degraded-mode fallback did.
	Verdict = store.Verdict
	// Verdicts is one batch's answers, all decided at one version, with the
	// count the fallback decided.
	Verdicts = store.Verdicts
)

const (
	// ModeExact answers through the scheme's prepared form.
	ModeExact = store.Exact
	// ModeDegraded answers through the scheme's declared fallback
	// (exact verdicts, cheaper to serve); datasets without one refuse with
	// ErrNoFallback.
	ModeDegraded = store.Degraded
)

// ErrNoFallback reports a ModeDegraded ask of a dataset that cannot
// degrade (Dataset.CanDegrade).
var ErrNoFallback = store.ErrNoFallback

// Deadline-bounded answering and quarantine helpers.
var (
	// AskWithin asks one query of a dataset under a context deadline:
	// expiry abandons the in-flight answer (its worker's late result is
	// dropped) and returns a *StoreDeadlineError. A context that can never
	// expire costs nothing — it is exactly Dataset.Ask.
	AskWithin = store.AskWithin
	// AskBatchWithin is AskWithin for batches; Verdicts.Degraded reports
	// how many verdicts were served through the scheme's degraded fallback
	// when the budget ran low mid-batch.
	AskBatchWithin = store.AskBatchWithin
	// AnswerWithin is AskWithin in ModeExact, returning the bare
	// verdict.
	AnswerWithin = store.AnswerWithin
	// AnswerBatchWithin is AskBatchWithin in ModeExact, returning
	// the bare verdicts and the degraded count.
	AnswerBatchWithin = store.AnswerBatchWithin
	// QuarantinePath maps an artifact path to its quarantine name (the
	// ".quarantine" suffix a corrupt snapshot or log is renamed to).
	QuarantinePath = store.QuarantinePath
)

var (
	// OpenStore returns a preprocessed store for (scheme, data), reloading
	// the snapshot at path when it matches (same scheme, same data digest)
	// and preprocessing + saving otherwise — the single-store face of the
	// preprocess-once contract.
	OpenStore = store.Open
	// NewStoreRegistry returns a registry persisting snapshots under dir
	// ("" = in-memory only).
	NewStoreRegistry = store.NewRegistry
	// NewServer returns an HTTP server over a registry; a nil catalog
	// selects ServeCatalog.
	NewServer = server.New
	// ServeCatalog lists the schemes a server offers for registration,
	// keyed by scheme name.
	ServeCatalog = server.Catalog
)

// --- observability (internal/obs) -----------------------------------------------

type (
	// ObsRegistry holds metric families (counters, gauges, lock-free
	// latency histograms) and renders them as Prometheus text exposition —
	// the engine behind GET /metrics. Lookups are get-or-create and
	// idempotent.
	ObsRegistry = obs.Registry
	// ObsHistogram is a lock-free log-bucketed latency histogram
	// (128ns…~8.6s plus overflow); recording is a few atomic adds.
	ObsHistogram = obs.Histogram
	// ObsHistogramSnapshot is a mergeable point-in-time histogram copy with
	// mean and quantile estimation.
	ObsHistogramSnapshot = obs.HistogramSnapshot
	// ObsLabel is one metric label (key + value).
	ObsLabel = obs.Label
)

var (
	// ObsDefaultRegistry is the process-wide registry every serve-path
	// stage records into and GET /metrics renders.
	ObsDefaultRegistry = obs.Default
	// NewObsRegistry returns an empty metric registry (for embedding
	// pitract metrics into another exposition).
	NewObsRegistry = obs.NewRegistry
	// SetMetricsEnabled is the observability kill switch: disabled, the
	// instrumented paths skip the clock reads and atomic writes entirely
	// (the benchmark's obs.overhead_pct row). Enabled by default.
	SetMetricsEnabled = obs.SetEnabled
	// MetricsEnabled reports whether metric recording is enabled.
	MetricsEnabled = obs.Enabled
	// CheckExposition validates Prometheus text exposition format — the
	// conformance checker the repository's own /metrics tests (and CI
	// smoke) run against every scrape.
	CheckExposition = obs.CheckExposition
)

// --- the answer cache (internal/cache) ------------------------------------------

type (
	// AnswerCache memoizes hot ⟨dataset, version, query⟩ verdicts in front
	// of the answering path: a sharded, byte-budgeted LRU with singleflight
	// coalescing (a thundering herd on one cold key runs the underlying
	// answer once). Maintenance invalidates for free — the dataset version
	// is part of every key, so a committed delta moves traffic to new keys
	// and stale entries age out. Wire it into a server with
	// Server.SetAnswerCache (the `pitract serve -cache-bytes` flag; the
	// server fronts only datasets whose scheme declares a per-query
	// traversal) or in front of any Dataset with NewCachedDataset.
	AnswerCache = cache.Cache
	// AnswerCacheStats is a point-in-time snapshot of an AnswerCache's
	// hit/miss/coalesced/eviction counters and residency.
	AnswerCacheStats = cache.Stats
)

var (
	// NewAnswerCache returns an answer cache bounded by a byte budget.
	NewAnswerCache = cache.New
	// NewCachedDataset fronts one dataset (plain or sharded) with an
	// answer cache: ModeExact asks consult and fill the cache, keyed at
	// the admission-time maintenance version, and an entry is only ever a
	// verdict computed at exactly its key's version; ModeDegraded asks
	// bypass it.
	NewCachedDataset = store.NewCachedDataset
)

// --- sharded stores (internal/shard) --------------------------------------------

type (
	// Dataset is the registry's answer-path interface: a plain Store or a
	// ShardedStore (or either behind NewCachedDataset), served identically
	// through Ask / AskBatch (see StoreRegistry.GetDataset and the HTTP
	// server's query paths).
	Dataset = store.Dataset
	// DeltaDataset is the registry's mutation seam: datasets that maintain
	// Π(D ⊕ ∆D) in place under StoreRegistry.ApplyDelta (and the server's
	// PATCH /v1/datasets/{id}). A kind supplies Stage (apply a batch to a
	// private copy, return the swap) and Checkpoint (write the committed
	// state); the write-ahead protocol and its recovery around them are the
	// store's, one copy for every kind.
	DeltaDataset = store.DeltaDataset
	// ShardedStore serves one dataset from n partitioned preprocessed
	// parts — ⟨Π, answerer⟩ members of one immutable committed value —
	// behind a single catalog entry, routing each query to its owning
	// shard or answering it through a view prepared over all of them.
	ShardedStore = shard.ShardedStore
	// Partitioner plans how element keys spread over shards (hash or
	// range).
	Partitioner = shard.Partitioner
)

// NewHashPartitioner spreads keys by 64-bit FNV-1a hash modulo the shard
// count — balanced for any distribution; range queries fan out.
func NewHashPartitioner() Partitioner { return shard.HashPartitioner{} }

// NewRangePartitioner cuts the sorted key space at quantile boundaries so
// each shard owns a contiguous, roughly equal-population key range and
// in-bucket range queries route to a single shard.
func NewRangePartitioner() Partitioner { return shard.RangePartitioner{} }

// BuildShardedStore cuts data into n parts, preprocesses each
// concurrently, and assembles a sharded store for the scheme (which must
// have a sharded form — see ShardingForScheme). Nothing is persisted; use
// RegisterSharded with a persistent registry for snapshots + manifest.
func BuildShardedStore(id string, scheme *Scheme, p Partitioner, n int, data []byte) (*ShardedStore, error) {
	sh := shard.ForScheme(scheme.Name())
	if sh == nil {
		return nil, fmt.Errorf("pitract: scheme %s has no sharded form (shardable: %v)",
			scheme.Name(), shard.ShardableSchemes())
	}
	return shard.Build(id, scheme, sh, p, n, data)
}

var (
	// RegisterSharded registers data as n partitioned stores behind one
	// registry catalog entry, with the same exactly-once build and
	// snapshot-reload contract as StoreRegistry.Register.
	RegisterSharded = shard.RegisterSharded
	// ShardingForScheme returns a scheme's sharded form, or nil when the
	// scheme has none (BDS visit orders and CVP gate tables are global
	// artifacts).
	ShardingForScheme = shard.ForScheme
	// ShardableSchemes lists the scheme names with sharded forms.
	ShardableSchemes = shard.ShardableSchemes
	// DeltaCapableSchemes lists the scheme names whose sharded form also
	// routes deltas (PATCH on a sharded dataset).
	DeltaCapableSchemes = shard.DeltaCapableSchemes
	// PartitionerByName resolves "hash"/"range" (the HTTP API's
	// ?partitioner values and the CLI's -partitioner flag).
	PartitionerByName = shard.PartitionerByName
)

// LoadSnapshot reads and validates a snapshot file on the real disk.
func LoadSnapshot(path string) (*StoreSnapshot, error) { return store.LoadFS(store.OSFS, path) }

// LoadShardedStore reopens a sharded dataset persisted under dir on the real
// disk, verifying the manifest and every shard snapshot's SHA-256; damage
// fails with a clean error.
func LoadShardedStore(dir, id string, scheme *Scheme) (*ShardedStore, error) {
	return shard.LoadShardedFS(store.OSFS, dir, id, scheme)
}

// --- the PRAM engine (internal/pram) -------------------------------------------

type (
	// PRAM is the deterministic CREW PRAM simulator behind the repository's
	// NC measurements. Built with NewPRAM; WithPRAMWorkers swaps in the
	// goroutine-parallel executor, which is observationally identical to
	// the sequential oracle (same memory images, rounds, and work) but uses
	// the host's cores.
	PRAM = pram.Machine
	// PRAMCost is (rounds, work) — parallel time and total activations.
	PRAMCost = pram.Cost
	// PRAMOption configures NewPRAM.
	PRAMOption = pram.Option
	// PRAMCtx is the per-processor view a kernel receives during a round.
	PRAMCtx = pram.Ctx
	// PRAMBoolMatrix is the dense Boolean matrix the closure schedule runs
	// on.
	PRAMBoolMatrix = pram.BoolMatrix
)

var (
	// NewPRAM returns a machine with the given number of memory cells.
	NewPRAM = pram.New
	// WithPRAMWorkers enables the goroutine-parallel executor (n <= 0
	// selects GOMAXPROCS workers).
	WithPRAMWorkers = pram.WithWorkers
	// WithPRAMConflictDetection enables CREW conflict checking.
	WithPRAMConflictDetection = pram.WithConflictDetection
	// NewPRAMBoolMatrix returns an n×n all-false matrix.
	NewPRAMBoolMatrix = pram.NewBoolMatrix
	// PRAMTransitiveClosure is the NC² closure schedule (Example 3).
	PRAMTransitiveClosure = pram.TransitiveClosure
	// PRAMBitonicSort is Batcher's O(log² n)-round sorting network.
	PRAMBitonicSort = pram.BitonicSort
)

// --- case-study schemes and query codecs (internal/schemes) -------------------

var (
	// PointSelectionScheme: Example 1 — sorted-key index, O(log|D|)
	// answering.
	PointSelectionScheme = schemes.PointSelectionScheme
	// PointSelectionScanScheme: the no-preprocessing baseline.
	PointSelectionScanScheme = schemes.PointSelectionScanScheme
	// RangeSelectionScheme: §4(1) range selection over the sorted keys.
	RangeSelectionScheme = schemes.RangeSelectionScheme
	// ListMembershipScheme: §4(2) sort + binary search.
	ListMembershipScheme = schemes.ListMembershipScheme
	// ReachabilityScheme: Example 3 — all-pairs closure matrix, O(1)
	// answering.
	ReachabilityScheme = schemes.ReachabilityScheme
	// ReachabilityBFSScheme: BFS-per-query baseline.
	ReachabilityBFSScheme = schemes.ReachabilityBFSScheme
	// ReachabilityLabelsScheme: succinct Π — a 2-hop labeling on the
	// query-preserving compression of the graph, verdict-identical to
	// ReachabilityScheme at a fraction of the artifact bytes.
	ReachabilityLabelsScheme = schemes.ReachabilityLabelsScheme
	// BDSScheme: Example 5 — visit-order preprocessing for breadth-depth
	// search.
	BDSScheme = schemes.BDSScheme
	// BDSNoPreprocessScheme: Figure 1's Υ′ — nothing preprocessed.
	BDSNoPreprocessScheme = schemes.BDSNoPreprocessScheme
	// CVPGateValueScheme: §6 — CVP made Π-tractable by refactorization.
	CVPGateValueScheme = schemes.CVPGateValueScheme
	// CVPNoPreprocessScheme: Theorem 9's Υ0 — preprocessing cannot help.
	CVPNoPreprocessScheme = schemes.CVPNoPreprocessScheme

	// SelectionLanguage is S1 (Example 3).
	SelectionLanguage = schemes.SelectionLanguage
	// RangeSelectionLanguage decides §4(1) range queries.
	RangeSelectionLanguage = schemes.RangeSelectionLanguage
	// ListMembershipLanguage is S(L1,Υ1) (§4(2)).
	ListMembershipLanguage = schemes.ListMembershipLanguage
	// ReachabilityLanguage is S2 (Example 3).
	ReachabilityLanguage = schemes.ReachabilityLanguage
	// BDSLanguage is S(BDS, Υ_BDS) (Example 4).
	BDSLanguage = schemes.BDSLanguage
	// BDSProblem is the BDS decision problem.
	BDSProblem = schemes.BDSProblem
	// BDSFactorization is Υ_BDS from Figure 1.
	BDSFactorization = schemes.BDSFactorization
	// CVPGateLanguage decides gate-value queries on CVP instances.
	CVPGateLanguage = schemes.CVPGateLanguage

	// PointQuery encodes a point-selection query value.
	PointQuery = schemes.PointQuery
	// RangeQuery encodes a range-selection query.
	RangeQuery = schemes.RangeQuery
	// NodePairQuery encodes a (u, v) node-pair query.
	NodePairQuery = schemes.NodePairQuery
	// GateQuery encodes a gate-value query.
	GateQuery = schemes.GateQuery
	// EncodeList serializes a list for the §4(2) problem.
	EncodeList = schemes.EncodeList
	// EncodeBits serializes a binary TM input.
	EncodeBits = schemes.EncodeBits
	// RelationFromKeys encodes a single-column relation from keys.
	RelationFromKeys = schemes.RelationFromKeys

	// TMProblem wraps a clocked Turing machine as a decision problem.
	TMProblem = schemes.TMProblem
	// TMToBDSReduction is the Theorem 5 reduction L(M) ≤NC_fa BDS.
	TMToBDSReduction = schemes.TMToBDSReduction
	// TMSchemeViaBDS is the Corollary 6 scheme: decide L(M) through BDS.
	TMSchemeViaBDS = schemes.TMSchemeViaBDS

	// RMQFuncScheme: §4(3) as a function scheme (sparse table, O(1)).
	RMQFuncScheme = schemes.RMQFuncScheme
	// RMQFuncLanguage is the RMQ reference function.
	RMQFuncLanguage = schemes.RMQFuncLanguage
	// LCAFuncScheme: §4(4) as a function scheme (all-pairs table, O(1)).
	LCAFuncScheme = schemes.LCAFuncScheme
	// LCAFuncLanguage is the DAG-LCA reference function.
	LCAFuncLanguage = schemes.LCAFuncLanguage
	// RangeQueryIJ encodes an (i, j) index-range query for RMQ.
	RangeQueryIJ = schemes.RangeQueryIJ
	// ViewRewritingScheme: §4(6) with the Definition 1 λ-rewriting.
	ViewRewritingScheme = schemes.ViewRewritingScheme
	// IncrementalPointSelection maintains the sorted-key file under
	// insertions (§1 incremental preprocessing).
	IncrementalPointSelection = schemes.IncrementalPointSelection
	// IncrementalRangeSelection maintains the range scheme's sorted-key
	// file with the same merge.
	IncrementalRangeSelection = schemes.IncrementalRangeSelection
	// IncrementalListMembership maintains the §4(2) sorted list under
	// element insertions.
	IncrementalListMembership = schemes.IncrementalListMembership
	// IncrementalReachability maintains the closure matrix under edge
	// insertions.
	IncrementalReachability = schemes.IncrementalReachability
	// IncrementalReachabilityBFS maintains the BFS baseline (Π = D, so
	// maintenance is appending the edge).
	IncrementalReachabilityBFS = schemes.IncrementalReachabilityBFS
	// IncrementalReachabilityLabels maintains the 2-hop labeling by
	// relabeling from the graph appendix on every committed edge delta.
	IncrementalReachabilityLabels = schemes.IncrementalReachabilityLabels
	// IncrementalForScheme resolves a scheme's incremental form by name —
	// the catalog StoreRegistry.ApplyDelta and the HTTP PATCH path route
	// through; nil for schemes with nothing maintainable.
	IncrementalForScheme = schemes.IncrementalForScheme
	// MaintainableSchemes lists the scheme names with incremental forms.
	MaintainableSchemes = schemes.MaintainableSchemes
	// KeysDelta encodes an insertion batch for IncrementalPointSelection.
	KeysDelta = schemes.KeysDelta
	// KeysDeleteDelta encodes a tombstone batch for the sorted-key
	// schemes: the listed keys are removed, and deleting an absent key
	// is an idempotent no-op.
	KeysDeleteDelta = schemes.KeysDeleteDelta
	// KeysUpsertDelta encodes an insert-if-absent batch for the
	// sorted-key schemes — safe to apply twice.
	KeysUpsertDelta = schemes.KeysUpsertDelta
	// EdgeDelta encodes an edge insertion for IncrementalReachability.
	EdgeDelta = schemes.EdgeDelta
	// EdgeDeleteDelta encodes an edge retraction for
	// IncrementalReachability; retracting an edge that was never
	// asserted is an error, and the closure is maintained decrementally.
	EdgeDeleteDelta = schemes.EdgeDeleteDelta
	// EdgeUpsertDelta encodes an insert-if-absent edge for
	// IncrementalReachability.
	EdgeUpsertDelta = schemes.EdgeUpsertDelta
)

// --- top-k with early termination (§8(5), internal/topk) ------------------------

type (
	// TopKDataset is n objects × m attributes of non-negative scores.
	TopKDataset = topk.Dataset
	// TopKIndex is the Threshold Algorithm preprocessing output.
	TopKIndex = topk.Index
	// TopKResult is one ranked answer.
	TopKResult = topk.Result
	// TopKStats counts sequential and random accesses per query.
	TopKStats = topk.Stats
)

var (
	// NewTopKIndex sorts the per-attribute lists (the TA preprocessing).
	NewTopKIndex = topk.NewIndex
	// TopKScan is the full-scan baseline.
	TopKScan = topk.Scan
	// GenZipfDataset generates a seeded skewed dataset.
	GenZipfDataset = topk.GenZipf
)

// --- circuits (internal/circuit) -------------------------------------------------

// CVPInstance is a full Circuit Value Problem instance (circuit ᾱ, inputs,
// designated output).
type CVPInstance = circuit.Instance

// CircuitGenConfig parameterizes random circuit generation.
type CircuitGenConfig = circuit.GenConfig

// Circuit is a topologically ordered Boolean circuit.
type Circuit = circuit.Circuit

var (
	// GenerateCircuit builds a seeded random circuit.
	GenerateCircuit = circuit.Generate
	// RandomCircuitInputs returns a seeded input assignment.
	RandomCircuitInputs = circuit.RandomInputs
	// EncodeCVPInstance serializes a CVP instance.
	EncodeCVPInstance = circuit.EncodeInstance
	// DecodeCVPInstance parses a serialized CVP instance.
	DecodeCVPInstance = circuit.DecodeInstance
	// ReduceCVPToBDS maps a CVP instance to a BDS instance with the same
	// answer (the Theorem 5 reference reduction; see internal/circuit/tobds.go).
	ReduceCVPToBDS = circuit.ReduceInstanceToBDS
	// OptimizeCircuit folds constants and drops dead gates without
	// changing the circuit's function.
	OptimizeCircuit = circuit.Optimize
)

// --- sample machines (internal/tm) --------------------------------------------

// ClockedMachine couples a deterministic Turing machine with its polynomial
// step bound.
type ClockedMachine = tm.Clocked

var (
	// ParityMachine accepts inputs with an even number of 1 bits.
	ParityMachine = tm.Parity
	// ContainsOneOneMachine accepts inputs containing "11".
	ContainsOneOneMachine = tm.ContainsOneOne
	// DivisibleByThreeMachine accepts binary multiples of three.
	DivisibleByThreeMachine = tm.DivisibleByThree
	// PalindromeMachine accepts binary palindromes (quadratic time).
	PalindromeMachine = tm.Palindrome
	// ZeroNOneNMachine accepts 0^a 1^a (quadratic time).
	ZeroNOneNMachine = tm.ZeroNOneN
	// SampleMachines returns all of the above.
	SampleMachines = tm.SampleMachines
)

// --- substrates used by the examples -------------------------------------------

type (
	// Graph is the shared graph substrate.
	Graph = graph.Graph
	// Relation is the relational substrate.
	Relation = relation.Relation
	// CompressedGraph is a query-preserving compression for reachability
	// (§4(5)).
	CompressedGraph = compress.Compressed
	// IncrementalReach is an incrementally maintained reachability index
	// (§4(7)).
	IncrementalReach = inc.Index
	// IncrementalLedger is the |CHANGED|-based cost accounting.
	IncrementalLedger = inc.Ledger
	// ViewSet is a set of materialized views (§4(6)).
	ViewSet = views.Set
	// ViewDef defines one range view.
	ViewDef = views.Def
)

var (
	// NewGraph returns an empty graph.
	NewGraph = graph.New
	// RandomConnectedUndirected generates a seeded connected graph.
	RandomConnectedUndirected = graph.RandomConnectedUndirected
	// RandomDirected generates a seeded directed graph.
	RandomDirected = graph.RandomDirected
	// CommunityGraph generates a social-network-shaped directed graph.
	CommunityGraph = graph.CommunityGraph
	// CompressGraph builds the §4(5) compression.
	CompressGraph = compress.Compress
	// NewIncrementalReach builds the §4(7) incremental index.
	NewIncrementalReach = inc.New
	// MaterializeViews builds the §4(6) view set.
	MaterializeViews = views.Materialize
	// EvenPartition returns k contiguous range views.
	EvenPartition = views.EvenPartition
	// GenerateRelation generates a seeded synthetic relation.
	GenerateRelation = relation.Generate
	// IntValue wraps an int64 as a relation value.
	IntValue = relation.Int
)

// RelationGenConfig parameterizes GenerateRelation.
type RelationGenConfig = relation.GenConfig

// --- experiments ------------------------------------------------------------------

type (
	// Experiment is one reproducible paper artifact.
	Experiment = harness.Experiment
	// ResultTable is a rendered experiment result.
	ResultTable = harness.Table
	// ExperimentScale selects Quick or Full workload sizes.
	ExperimentScale = harness.Scale
)

// Experiment scales.
const (
	// ScaleQuick finishes the whole suite in seconds.
	ScaleQuick = harness.Quick
	// ScaleFull runs each experiment's larger size sweep.
	ScaleFull = harness.Full
)

// Experiments lists every experiment (E1, F1, F2, E3, C1…C12, T5, L2, T9,
// P10, A1…A3, X1, X2) in presentation order.
func Experiments() []Experiment { return harness.All() }

// RunExperiment runs one experiment by id and renders its table to w.
func RunExperiment(w io.Writer, id string, scale ExperimentScale) error {
	e, ok := harness.Find(id)
	if !ok {
		return &UnknownExperimentError{ID: id}
	}
	tbl, err := e.Run(scale)
	if err != nil {
		return err
	}
	tbl.Render(w)
	return nil
}

// UnknownExperimentError reports a bad experiment id.
type UnknownExperimentError struct {
	// ID is the id that was not found.
	ID string
}

// Error implements error.
func (e *UnknownExperimentError) Error() string {
	return "pitract: unknown experiment " + e.ID + " (use Experiments() for the list)"
}
