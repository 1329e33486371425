// Package pitract is the public API of the Π-tractability library, a full
// implementation of Fan, Geerts & Neven, "Making Queries Tractable on Big
// Data with Preprocessing" (VLDB 2013).
//
// Everything lives under internal/; this file re-exports what a client
// needs to drive it. A name is exported here iff cmd/, examples/, a root
// test or the documents name it (TestFacadeNamesHaveUsers); the other types
// stay reachable through the constructors that return them.
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
// network: NewStoreRegistry persists preprocessed stores as versioned,
// checksummed snapshots (computed once, reloaded across process restarts),
// and NewServer exposes a registry as an HTTP JSON API — the
// `pitract serve` subcommand. What each serving layer below costs is
// measured by one instrument, the bench/ module (go run -C bench .), not by
// an experiment; docs/ARCHITECTURE.md maps each question to its workload
// and metric rows.
//
// On top of that sits horizontal scaling: a dataset can be partitioned
// across n preprocessed parts (BuildShardedStore, RegisterSharded, the
// server's ?shards=N parameter, the CLI's -shards flag) with hash or range
// partitioning — the same store, laid out over n members instead of one.
// Queries route to the shard owning their answer, fan out to
// every shard with the verdicts ORed, or — reachability — answer through a
// view prepared over all of them (per-vertex portal reach rows);
// differential tests pin sharded answers identical to unsharded ones.
//
// Registered datasets are live-updatable (§1 justification (3)): for
// every scheme that sets ApplyDelta (the built-in ones are
// MaintainableSchemes), the registry's ApplyDelta — and HTTP PATCH /v1/datasets/{id} — maintains Π(D ⊕ ∆D) in
// place instead of re-preprocessing, bumps a monotonic dataset version
// reported in every query and info response, and appends the batch to a
// write-ahead delta log before it commits (the snapshot is rewritten on a
// checkpoint cadence), so restarts resume from the maintained Π at the
// acknowledged version.
// Sharded datasets route each delta to the shards it lands on (key batches
// split by partitioner; reachability edge inserts update the owning
// shard's closure and rebuild the portal overlay). A maintained-vs-rebuilt
// differential suite pins ApplyDelta equivalent to preprocessing the
// updated data from scratch.
//
// The hot-path query engine keeps the per-query cost down to the probe:
// a scheme's one answering procedure is Scheme.Prepare, which every store
// runs once over Π (closure rows as word-packed bitsets, sorted key files
// probed in their own bytes, the BFS baseline as a frozen two-way CSR);
// Scheme.Answer is Prepare-then-probe, for one-shot callers. Every
// dataset kind, plain or sharded, serves one immutable committed value —
// ⟨Π, version, answerer⟩ — behind an atomic pointer: a query loads it once
// and takes no lock, a maintenance commit stores the next one. An optional
// answer cache (NewAnswerCache, NewCachedDataset, the server's
// SetAnswerCache, `pitract serve -cache-bytes`) memoizes hot
// ⟨dataset, version, query⟩ verdicts in a sharded byte-budgeted LRU with
// singleflight coalescing — version-keyed, so PATCH invalidates for free.
// The server fronts only schemes that declare a per-query traversal
// (Scheme.Traversal): an index probe of Π is cheaper than a cache lookup.
// Both paths are differentially pinned to the scheme's Language.
//
// An observability layer watches all of it without getting in its way:
// every serve-path stage (admission, cache lookup, shard fan-out/merge,
// preprocess, snapshot I/O, PATCH apply/persist) records into lock-free
// log-bucketed latency histograms in a process-wide metric registry,
// rendered as Prometheus text exposition by GET /metrics (CheckExposition
// is its conformance checker), summarized as per-scheme and per-stage
// percentiles in /v1/stats (with uptime and build info), and traced per
// request via X-Request-ID and structured slog request/slow-query logging
// (`pitract serve -log-level/-log-format/-slow-query-ms`; -pprof-addr
// serves net/http/pprof on its own listener). The benchmark's
// obs.overhead_pct row is what recording costs.
//
// The serving path degrades gracefully instead of falling over: every
// query can carry a deadline (ServerLimits.QueryBudget, `pitract serve
// -query-budget-ms`; overruns are abandoned with 504 and the late worker's
// result dropped), each dataset is fronted by a health circuit breaker
// (repeated serve-path failures trip it open and traffic is refused fast
// with 503 + Retry-After until a backoff-paced probe heals it), and corrupt
// snapshots and delta logs are renamed aside (*.quarantine) and rebuilt
// from source. Each of those behaviours is
// pinned by a deterministic test over a live test server or a
// fault-injecting medium (internal/store/faultfs).
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
	// Scheme witnesses Π-tractability: PTIME Preprocess + a Prepare whose
	// Answerer decides each query in NC (Definition 1).
	Scheme = core.Scheme
	// Answerer is one prepared Π(D), what Scheme.Prepare returns.
	Answerer = core.Answerer
	// AnswererFunc adapts a function to Answerer.
	AnswererFunc = core.AnswererFunc
	// Measurement is one (size, cost) sample for growth classification.
	Measurement = core.Measurement
)

// GrowthPolylog is the growth family of the NC answering budget: cost
// polynomial in log n.
const GrowthPolylog = core.GrowthPolylog

// Framework functions.
var (
	// PadPair encodes (d, q) as one string — the paper's "@" padding.
	PadPair = core.PadPair
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
func ApplyBatch(s *core.FuncScheme, pd []byte, queries [][]byte, parallelism int) ([][]byte, error) {
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

// ServerLimits configures a server's serving envelope — body/batch caps,
// concurrency admission (429 + Retry-After), per-query deadlines (504) and
// registration/maintenance wall budgets (503, no catalog side effects).
// Install with the server's SetLimits; the CLI face is `pitract serve`'s
// -max-*, -query-budget-ms and -register-budget flags.
type ServerLimits = server.Limits

var (
	// NewStoreRegistry returns a registry persisting snapshots under dir
	// ("" = in-memory only); its Register(id, scheme, data) is the
	// preprocess-once contract — load the snapshot (replaying its delta
	// log) when it matches, quarantine it when corrupt, preprocess and
	// save otherwise.
	NewStoreRegistry = store.NewRegistry
	// NewServer returns an HTTP server over a registry; a nil catalog
	// selects ServeCatalog.
	NewServer = server.New
	// ServeCatalog lists the schemes a server offers for registration,
	// keyed by scheme name.
	ServeCatalog = server.Catalog
)

// --- observability (internal/obs) -----------------------------------------------

// CheckExposition validates Prometheus text exposition format — the
// conformance checker the repository's own /metrics tests (and CI smoke)
// run against every scrape.
var CheckExposition = obs.CheckExposition

// --- the answer cache (internal/cache) ------------------------------------------

var (
	// NewAnswerCache returns an answer cache bounded by a byte budget: a
	// sharded LRU of ⟨dataset, version, query⟩ verdicts with singleflight
	// coalescing. The version is part of every key, so a committed delta
	// invalidates for free. Wire it into a server with its SetAnswerCache
	// (`pitract serve -cache-bytes`) or in front of one dataset with
	// NewCachedDataset.
	NewAnswerCache = cache.New
	// NewCachedDataset fronts one dataset (plain or sharded) with an
	// answer cache: asks consult and fill the cache, keyed at the
	// admission-time maintenance version, and an entry is only ever a
	// verdict computed at exactly its key's version.
	NewCachedDataset = store.NewCachedDataset
)

// --- sharded stores (internal/shard) --------------------------------------------
//
// A sharded store is the registry's one store kind laid out over n parts:
// the value BuildShardedStore and RegisterSharded return is a *store.Store
// (Ask, AskBatch, Version and the rest are that store's) with the
// partition's facts beside it, and its file is a plain dataset's format with
// one member per shard.

// NewHashPartitioner spreads keys by 64-bit FNV-1a hash modulo the shard
// count — balanced for any distribution; range queries fan out.
func NewHashPartitioner() shard.Partitioner { return shard.HashPartitioner{} }

// NewRangePartitioner cuts the sorted key space at quantile boundaries so
// each shard owns a contiguous, roughly equal-population key range and
// in-bucket range queries route to a single shard.
func NewRangePartitioner() shard.Partitioner { return shard.RangePartitioner{} }

// BuildShardedStore cuts data into n parts, preprocesses each
// concurrently, and assembles a sharded store for the scheme (which must
// have a sharded form — see ShardingForScheme). Nothing is persisted; use
// RegisterSharded with a persistent registry for the manifest file.
func BuildShardedStore(id string, scheme *Scheme, p shard.Partitioner, n int, data []byte) (*shard.ShardedStore, error) {
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
	// snapshot-reload contract as the registry's Register.
	RegisterSharded = shard.RegisterSharded
	// ShardingForScheme returns a scheme's sharded form, or nil when the
	// scheme has none (BDS visit orders and CVP gate tables are global
	// artifacts).
	ShardingForScheme = shard.ForScheme
	// DeltaCapableSchemes lists the scheme names whose sharded form also
	// routes deltas (PATCH on a sharded dataset).
	DeltaCapableSchemes = shard.DeltaCapableSchemes
	// PartitionerByName resolves "hash"/"range" (the HTTP API's
	// ?partitioner values and the CLI's -partitioner flag).
	PartitionerByName = shard.PartitionerByName
)

// LoadDataset reopens the dataset persisted under dir as id on the real
// disk — plain or sharded, one file either way — verifying the file's CRC and
// every member snapshot's own; damage fails with a clean error.
func LoadDataset(dir, id string, scheme *Scheme) (store.Dataset, error) {
	return store.Load(store.OSFS, dir, id, scheme, nil, shard.LayoutDecoder(scheme))
}

// --- the PRAM engine (internal/pram) -------------------------------------------

// PRAMBoolMatrix is the dense Boolean matrix the closure schedule runs on.
type PRAMBoolMatrix = pram.BoolMatrix

var (
	// NewPRAM returns the deterministic CREW PRAM simulator behind the
	// repository's NC measurements, with the given number of memory cells.
	NewPRAM = pram.New
	// WithPRAMWorkers enables the goroutine-parallel executor (n <= 0
	// selects GOMAXPROCS workers), observationally identical to the
	// sequential oracle: same memory images, rounds, and work.
	WithPRAMWorkers = pram.WithWorkers
	// NewPRAMBoolMatrix returns an n×n all-false matrix.
	NewPRAMBoolMatrix = pram.NewBoolMatrix
	// PRAMTransitiveClosure is the NC² closure schedule (Example 3).
	PRAMTransitiveClosure = pram.TransitiveClosure
)

// --- case-study schemes and query codecs (internal/schemes) -------------------

var (
	// PointSelectionScheme: Example 1 — sorted-key index, O(log|D|)
	// answering.
	PointSelectionScheme = schemes.PointSelectionScheme
	// PointSelectionScanScheme: the no-preprocessing baseline.
	PointSelectionScanScheme = schemes.PointSelectionScanScheme
	// ReachabilityScheme: Example 3 — all-pairs closure matrix, O(1)
	// answering.
	ReachabilityScheme = schemes.ReachabilityScheme
	// ReachabilityBFSScheme: BFS-per-query baseline.
	ReachabilityBFSScheme = schemes.ReachabilityBFSScheme
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

	// PointQuery encodes a point-selection query value.
	PointQuery = schemes.PointQuery
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

	// TMToBDSReduction is the Theorem 5 reduction L(M) ≤NC_fa BDS.
	TMToBDSReduction = schemes.TMToBDSReduction
	// TMSchemeViaBDS is the Corollary 6 scheme: decide L(M) through BDS.
	TMSchemeViaBDS = schemes.TMSchemeViaBDS

	// RMQFuncScheme: §4(3) as a function scheme (sparse table, O(1)).
	RMQFuncScheme = schemes.RMQFuncScheme
	// RangeQueryIJ encodes an (i, j) index-range query for RMQ.
	RangeQueryIJ = schemes.RangeQueryIJ
	// MaintainableSchemes lists the built-in schemes that set ApplyDelta.
	MaintainableSchemes = schemes.MaintainableSchemes
	// KeysDelta encodes an insertion batch for the sorted-key schemes.
	KeysDelta = schemes.KeysDelta
)

// --- top-k with early termination (§8(5), internal/topk) ------------------------

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
)

// --- sample machines (internal/tm) --------------------------------------------

// Clocked machines: a deterministic Turing machine with its polynomial step
// bound.
var (
	// ParityMachine accepts inputs with an even number of 1 bits.
	ParityMachine = tm.Parity
	// PalindromeMachine accepts binary palindromes (quadratic time).
	PalindromeMachine = tm.Palindrome
)

// --- substrates used by the examples -------------------------------------------

var (
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
)

// RelationGenConfig parameterizes GenerateRelation.
type RelationGenConfig = relation.GenConfig

// --- experiments ------------------------------------------------------------------

// Experiment scales.
const (
	// ScaleQuick finishes the whole suite in seconds.
	ScaleQuick = harness.Quick
	// ScaleFull runs each experiment's larger size sweep.
	ScaleFull = harness.Full
)

// Experiments lists every experiment (E1, F1, F2, E3, C1…C12, T5, L2, T9,
// P10, A1…A3, X1, X2) in presentation order.
func Experiments() []harness.Experiment { return harness.All() }

// RunExperiment runs one experiment by id and renders its table to w.
func RunExperiment(w io.Writer, id string, scale harness.Scale) error {
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
