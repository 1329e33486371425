// Package server exposes a registry of preprocessed stores as an HTTP JSON
// API — the serving face of the paper's preprocess-once/answer-many
// asymmetry. A dataset is POSTed once, paying the PTIME preprocessing (or a
// snapshot reload) up front; every query thereafter rides the NC answering
// path, and batches go through the same AnswerBatch worker pools the
// library uses in-process.
//
// Endpoints:
//
//	GET   /healthz              liveness + dataset count + per-dataset
//	                            health states
//	POST  /v1/datasets          register (and preprocess) a dataset; ?shards=n
//	                            partitions it across n preprocessed stores
//	GET   /v1/datasets          list registered datasets
//	GET   /v1/datasets/{id}     describe one dataset
//	PATCH /v1/datasets/{id}     apply a delta batch: Π(D ⊕ ∆D) maintained in
//	                            place through the scheme's incremental form
//	POST  /v1/query             answer one query
//	POST  /v1/query/batch       answer a batch through the worker pool
//	GET   /v1/stats             per-scheme query counts, latency totals and
//	                            percentiles, deltas applied and maintenance
//	                            latency, per-stage latency percentiles,
//	                            uptime and build info, and answer-cache
//	                            counters when a cache is set
//	GET   /metrics              Prometheus text exposition of every stage
//	                            histogram, counter, and gauge (never metered
//	                            by the serving envelope)
//
// Data, queries, and deltas travel base64-encoded (encoding/json's []byte
// rule), so the wire format is exactly the library's byte-string instance
// encoding.
//
// The answer paths are routed through store.Dataset, so a dataset
// registered with ?shards=n (or under the CLI's -shards default) serves
// /v1/query and /v1/query/batch from its internal/shard fan-out/merge
// machinery with no client-visible difference except the shards field in
// DatasetInfo. Every store answers through its prepared (decoded-once)
// form, and with SetAnswerCache (the -cache-bytes flag) a version-keyed
// verdict cache with singleflight coalescing sits in front of both answer
// paths of the datasets whose scheme declares a per-query traversal —
// everything else answers through the probe Π prepared, which is cheaper
// than a cache lookup (see answerPath). A batch body is read once and
// decoded in one pass into one backing array (batchdecode.go), with
// encoding/json as the reference for anything outside the canonical shape.
//
// A serving envelope (see Limits and SetLimits) bounds what one request
// or one burst can cost: oversized bodies and batches are refused with
// 413, work beyond the configured concurrency limits with 429 +
// Retry-After, and registrations or delta batches that outrun their wall
// budget are abandoned with 503 and no catalog side effects. Queries
// carry their own deadline (Limits.QueryBudget, `pitract serve
// -query-budget-ms`): an overrun is abandoned with 504. Each dataset is
// fronted by a health circuit breaker — repeated serve-path failures trip
// it open and further traffic is refused fast with 503 + Retry-After
// until a backoff-paced probe succeeds; datasets with a declared
// degraded-mode fallback keep answering (marked "degraded") while
// unhealthy. See docs/API.md for the full request/response reference and
// docs/ARCHITECTURE.md for the fault-tolerance design.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pitract/internal/cache"
	"pitract/internal/core"
	"pitract/internal/obs"
	"pitract/internal/schemes"
	"pitract/internal/shard"
	"pitract/internal/store"
)

// Catalog returns the schemes a server offers for registration, keyed by
// scheme name. It covers every decision scheme from the paper's case
// studies that answers against a preprocessed store.
func Catalog() map[string]*core.Scheme {
	cat := map[string]*core.Scheme{}
	for _, s := range []*core.Scheme{
		schemes.PointSelectionScheme(),
		schemes.PointSelectionScanScheme(),
		schemes.RangeSelectionScheme(),
		schemes.ListMembershipScheme(),
		schemes.ReachabilityScheme(),
		schemes.ReachabilityLabelsScheme(),
		schemes.ReachabilityBFSScheme(),
		schemes.BDSScheme(),
		schemes.CVPGateValueScheme(),
	} {
		cat[s.Name()] = s
	}
	return cat
}

// maxBatchParallelism caps the client-supplied worker count for batch
// answering; AnswerBatch only clamps to len(queries), so without a
// server-side bound one request could demand a goroutine per query.
const maxBatchParallelism = 256

// schemeStats is the wire form of one scheme's serving counters. The
// percentile columns are estimated from the scheme's answer-latency
// histogram (see internal/obs) and are zero until something is recorded —
// including when metrics are disabled.
type schemeStats struct {
	Queries int64 `json:"queries"`
	Errors  int64 `json:"errors"`
	// QueriesFailed counts queries that were admitted but not answered: 1
	// per failed single query, the whole batch for a failed batch (answer
	// errors fail fast and return no verdicts).
	QueriesFailed int64 `json:"queries_failed"`
	LatencyNs     int64 `json:"latency_ns"`
	P50Ns         int64 `json:"p50_ns"`
	P90Ns         int64 `json:"p90_ns"`
	P99Ns         int64 `json:"p99_ns"`
	P999Ns        int64 `json:"p999_ns"`
}

// schemeCounters accumulates one scheme's serving counters. The fields are
// atomics — the answer path bumps them lock-free, so bookkeeping never
// serializes concurrent requests the way the old single-mutex counters did
// (every request across every scheme used to contend on one statsMu).
type schemeCounters struct {
	queries   atomic.Int64
	errors    atomic.Int64
	failed    atomic.Int64
	latencyNs atomic.Int64
	// hist is the scheme's answer-latency histogram in the obs.Default
	// registry — looked up once when the counters are created, observed
	// per answered call.
	hist *obs.Histogram
}

// snapshot renders the counters for the wire.
func (c *schemeCounters) snapshot() schemeStats {
	st := schemeStats{
		Queries:       c.queries.Load(),
		Errors:        c.errors.Load(),
		QueriesFailed: c.failed.Load(),
		LatencyNs:     c.latencyNs.Load(),
	}
	if snap := c.hist.Snapshot(); snap.Count > 0 {
		st.P50Ns = snap.Quantile(0.50).Nanoseconds()
		st.P90Ns = snap.Quantile(0.90).Nanoseconds()
		st.P99Ns = snap.Quantile(0.99).Nanoseconds()
		st.P999Ns = snap.Quantile(0.999).Nanoseconds()
	}
	return st
}

// maxShards caps the client-supplied shard count: each shard costs a
// goroutine during registration and a snapshot file on disk, so an
// unbounded ?shards=10^9 is a resource-exhaustion vector.
const maxShards = 64

// Server serves a store.Registry over HTTP.
type Server struct {
	reg     *store.Registry
	catalog map[string]*core.Scheme
	mux     *http.ServeMux

	// defaultShards is applied to registrations that do not carry an
	// explicit ?shards parameter (0 or 1 = unsharded); defaultPartitioner
	// names the partitioner used when ?partitioner is absent.
	defaultShards      int
	defaultPartitioner string

	// stats maps a scheme name to its *schemeCounters; sync.Map keeps the
	// read-mostly hot path (existing scheme, atomic bumps) lock-free.
	stats sync.Map
	// maintenanceNs sums the wall time of successful PATCH maintenance
	// (the deltas-applied count itself lives on the registry, next to the
	// preprocess and snapshot-load counters, so library-side ApplyDelta
	// calls are counted too).
	maintenanceNs atomic.Int64
	// degradedAnswers counts verdicts served through a degraded-mode
	// fallback (breaker half-open or query budget nearly spent); surfaced
	// as degraded_answers in /v1/stats and as
	// pitract_degraded_answers_total in /metrics.
	degradedAnswers atomic.Int64

	// cache, when non-nil, memoizes ⟨dataset, version, query⟩ verdicts in
	// front of the datasets whose scheme declares a per-query traversal
	// (see SetAnswerCache).
	cache *cache.Cache
	// cachedViews memoizes, per dataset id, the view answerPath chose — the
	// cache-fronted wrapper or the dataset itself. Values are *cachedView;
	// SetAnswerCache clears it.
	cachedViews sync.Map

	// env enforces the serving envelope: body/batch caps, admission
	// control, and request budgets (see Limits and SetLimits). Never nil.
	env *envelope

	// root is the handler the listener serves: the observability middleware
	// (request-ID assignment, optional request/slow-query logging) wrapped
	// around mux. Never nil.
	root http.Handler
	// startTime anchors the uptime_s stats field.
	startTime time.Time
	// logger, when non-nil, receives one structured line per request (and
	// slow-query warnings past slowQuery). Set before serving traffic.
	logger *slog.Logger
	// slowQuery is the threshold past which a request is logged at Warn;
	// 0 disables the slow-query log. Set before serving traffic.
	slowQuery time.Duration

	// httpSrv is created in New so Shutdown always has a target, even when
	// it races the start of Serve (http.Server.Shutdown before Serve makes
	// the later Serve return ErrServerClosed immediately).
	httpSrv *http.Server
}

// New returns a server over reg. catalog maps the scheme names clients may
// register with; nil selects Catalog().
func New(reg *store.Registry, catalog map[string]*core.Scheme) *Server {
	if catalog == nil {
		catalog = Catalog()
	}
	s := &Server{
		reg:       reg,
		catalog:   catalog,
		mux:       http.NewServeMux(),
		startTime: time.Now(),
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/datasets", s.handleDatasets)
	s.mux.HandleFunc("/v1/datasets/", s.handleDatasetByID)
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/query/batch", s.handleQueryBatch)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	// /metrics renders the process-wide obs.Default registry; like the other
	// observability endpoints it is never metered by the envelope, so the
	// node stays scrapeable under saturation.
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.env = newEnvelope(Limits{})
	s.root = s.withObservability(s.mux)
	s.httpSrv = &http.Server{Handler: s.root}
	s.applyTimeouts()
	// The in-flight gauge reads the envelope at scrape time — zero hot-path
	// cost. The registry is process-wide, so the most recently constructed
	// Server owns the callback (one server per process in production).
	obs.Default.GaugeFunc("pitract_requests_in_flight",
		"Work requests currently admitted by the serving envelope.",
		func() int64 { return s.env.inFlight.Load() })
	// The artifact gauge sums the in-memory Π bytes over completed datasets
	// at scrape time — PrepBytes is a length read per dataset, so scrapes
	// stay cheap even with many registrations.
	obs.Default.GaugeFunc("pitract_artifact_bytes",
		"Total in-memory preprocessed artifact (Π) bytes across completed datasets.",
		func() int64 { return reg.ArtifactBytes() })
	return s
}

// Probe-stage histograms: reachability answer latency split by answerer
// family, so dashboards can compare the succinct label-intersection probes
// against the closure-matrix probes side by side. Observed in record() — on
// the serving path, outside the prepared answerers, so the hot probe loop
// itself stays uninstrumented.
var (
	obsProbeDense = obs.Stage(obs.StageProbeDense)
	obsProbeLabel = obs.Stage(obs.StageProbeLabel)
)

// Graceful-degradation counters: verdicts served through a declared
// fallback instead of the primary answer path, and queries abandoned at
// the -query-budget-ms deadline. Both feed the breaker dashboards next to
// pitract_breaker_trips_total.
var (
	obsDegradedAnswers = obs.Default.Counter("pitract_degraded_answers_total",
		"Verdicts served through a dataset's degraded-mode fallback.")
	obsDeadlineExpired = obs.Default.Counter("pitract_deadline_expired_total",
		"Queries abandoned at the per-query deadline (HTTP 504).")
)

// SetLogger installs a structured logger: one Debug line per request plus
// Warn lines for requests past the slow-query threshold. nil (the default)
// disables request logging. Set it before serving traffic — the server
// face of `pitract serve -log-level/-log-format`.
func (s *Server) SetLogger(l *slog.Logger) { s.logger = l }

// SetSlowQueryThreshold sets the latency past which a request is logged at
// Warn through the logger installed with SetLogger; 0 (the default)
// disables the slow-query log. Set it before serving traffic — the server
// face of `pitract serve -slow-query-ms`.
func (s *Server) SetSlowQueryThreshold(d time.Duration) { s.slowQuery = d }

// SetLimits installs the serving envelope — body/batch caps, concurrency
// admission, request budgets, and the Retry-After advertisement — and
// sizes the http.Server timeouts to fit it. Set it before serving
// traffic; the zero Limits (the default) keeps the documented caps with
// no concurrency limit and no budget.
func (s *Server) SetLimits(l Limits) {
	s.env = newEnvelope(l)
	s.applyTimeouts()
}

// Limits returns the active serving envelope (defaults resolved).
func (s *Server) Limits() Limits { return s.env.limits }

// applyTimeouts sizes the http.Server timeouts to the envelope. The
// header read stays on a tight fuse and idle keep-alives are reaped, but
// the read/write timeouts — which bound body transfer and the whole
// handler — must fit the slowest legitimate request: a registration
// running right up to its budget. With no budget configured they fall
// back to a generous fixed window; set RegisterBudget to serve
// registrations slower than that.
func (s *Server) applyTimeouts() {
	const baseTimeout = 2 * time.Minute
	rw := baseTimeout
	if b := s.env.limits.RegisterBudget; b > 0 && b+30*time.Second > rw {
		rw = b + 30*time.Second
	}
	s.httpSrv.ReadHeaderTimeout = 10 * time.Second
	s.httpSrv.ReadTimeout = rw
	s.httpSrv.WriteTimeout = rw
	s.httpSrv.IdleTimeout = 2 * time.Minute
}

// Registry returns the registry the server answers from.
func (s *Server) Registry() *store.Registry { return s.reg }

// SetAnswerCache gives the server a verdict cache and c's byte budget to
// spend on the datasets whose scheme declares a per-query traversal
// (core.Scheme.Traversal): their hot ⟨dataset, version, query⟩ verdicts are
// served from memory, cold keys run the traversal once per thundering
// herd, and a PATCH invalidates by version bump (stale keys age out of the
// LRU). Every other dataset keeps answering through its prepared probe,
// which is cheaper than a cache lookup. nil disables caching. Set it before
// serving traffic — the server face of the CLI's -cache-bytes flag. Cache
// counters appear in /v1/stats and /metrics while enabled.
func (s *Server) SetAnswerCache(c *cache.Cache) {
	s.cache = c
	// Memoized views wrap the previous cache; drop them so answerPath
	// rebuilds against c.
	s.cachedViews.Range(func(k, _ interface{}) bool {
		s.cachedViews.Delete(k)
		return true
	})
	if c == nil {
		return
	}
	// Render-time callbacks over c.Stats(): no hot-path bookkeeping. The
	// registry is process-wide, so the most recently cached Server owns them.
	for _, m := range []struct {
		name, help string
		read       func(cache.Stats) int64
	}{
		{"hits_total", "Verdicts served from the answer cache.", func(st cache.Stats) int64 { return st.Hits }},
		{"misses_total", "Verdicts that ran the answering path and filled the answer cache.", func(st cache.Stats) int64 { return st.Misses }},
		{"coalesced_total", "Requests that waited on another request's in-flight answer for the same key.", func(st cache.Stats) int64 { return st.Coalesced }},
		{"evictions_total", "Entries dropped by the answer cache's byte budget.", func(st cache.Stats) int64 { return st.Evictions }},
	} {
		obs.Default.CounterFunc("pitract_answer_cache_"+m.name, m.help, func() int64 { return m.read(c.Stats()) })
	}
	obs.Default.GaugeFunc("pitract_answer_cache_resident_bytes",
		"Bytes of verdicts resident in the answer cache.",
		func() int64 { return c.Stats().Bytes })
}

// cachedView pairs a dataset with the view answerPath chose for it; the ds
// field lets answerPath detect a re-registered dataset under the same id
// and decide again rather than answer through a stale wrapper.
type cachedView struct {
	ds   store.Dataset
	view store.Dataset
}

// answerPath returns the dataset the answer handlers should answer
// through: its cache-fronted view when a cache is set and the dataset's
// scheme declares a per-query traversal, the dataset itself otherwise — an
// index probe costs less than the cache lookup that would replace it. A
// scheme name the catalog does not know is served uncached, which is
// always correct. The choice is memoized per dataset id, so the
// per-request cost is one sync.Map load and no allocation.
func (s *Server) answerPath(ds store.Dataset) store.Dataset {
	if s.cache == nil {
		return ds
	}
	id := ds.DatasetID()
	if v, ok := s.cachedViews.Load(id); ok {
		if cv := v.(*cachedView); cv.ds == ds {
			return cv.view
		}
	}
	cv := &cachedView{ds: ds, view: ds}
	if sch := s.catalog[ds.SchemeName()]; sch != nil && sch.Traversal {
		cv.view = store.NewCachedDataset(ds, s.cache)
	}
	s.cachedViews.Store(id, cv)
	return cv.view
}

// SetDefaultSharding sets the shard count and partitioner applied to
// registrations without explicit ?shards/?partitioner parameters — the
// server face of the CLI's -shards/-partitioner flags. shards 0 or 1 keeps
// the unsharded default, a negative count is refused like ?shards=-1 is; an
// empty partitioner selects "hash". Both are validated here so a typo
// fails at startup, not at the first registration.
func (s *Server) SetDefaultSharding(shards int, partitioner string) error {
	if shards < 0 {
		return fmt.Errorf("server: default shards %d: want a non-negative integer", shards)
	}
	if shards > maxShards {
		return fmt.Errorf("server: default shards %d exceeds the cap %d", shards, maxShards)
	}
	if _, err := shard.PartitionerByName(partitioner); err != nil {
		return err
	}
	s.defaultShards = shards
	s.defaultPartitioner = partitioner
	return nil
}

// Handler returns the HTTP handler (for httptest and embedding), including
// the observability middleware.
func (s *Server) Handler() http.Handler { return s.root }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.root.ServeHTTP(w, r) }

// Serve accepts connections on l until Shutdown. Callers listen first —
// on ":0" they learn the port before serving. Each Server serves one
// listener lifetime: after Shutdown, make a new Server rather than calling
// Serve again.
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown gracefully stops a Serve in progress: in-flight
// requests finish (bounded by ctx), new connections are refused. Calling
// it before Serve starts is safe — the pending Serve then returns
// immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.httpSrv.Shutdown(ctx)
}

// --- wire types ---------------------------------------------------------------

// RegisterRequest registers a dataset: raw data bytes plus the scheme that
// should preprocess and answer it.
type RegisterRequest struct {
	ID     string `json:"id"`
	Scheme string `json:"scheme"`
	Data   []byte `json:"data"`
}

// DatasetInfo describes one registered dataset.
type DatasetInfo struct {
	ID        string `json:"id"`
	Scheme    string `json:"scheme"`
	PrepBytes int    `json:"prep_bytes"`
	// Loaded is true when Π(D) came from a snapshot instead of a fresh
	// Preprocess call.
	Loaded bool `json:"loaded"`
	// Shards is the number of preprocessed stores backing the dataset
	// (1 = unsharded).
	Shards int `json:"shards"`
	// Version is the dataset's monotonic maintenance version: 0 as
	// registered, +1 per delta applied through PATCH. Snapshot reloads
	// restore it, so it never regresses across restarts.
	Version uint64 `json:"version"`
	// Cached is true when the answer cache fronts this dataset: a cache is
	// set and the scheme declares a per-query traversal. Absent otherwise —
	// repeat queries on such a dataset are probes, not hits.
	Cached bool `json:"cached,omitempty"`
}

// PatchRequest applies a batch of deltas to a registered dataset:
// Π ← Π(D ⊕ ∆D₁ ⊕ … ⊕ ∆Dₖ), maintained in place through the scheme's
// incremental form instead of re-preprocessing. Each delta uses the
// scheme's delta encoding (schemes.KeysDelta for the sorted-key schemes,
// schemes.EdgeDelta for reachability). The batch is atomic: every delta
// commits — with a bumped version and a rewritten snapshot — or none do.
type PatchRequest struct {
	Deltas [][]byte `json:"deltas"`
}

// QueryRequest answers one query against a registered dataset.
type QueryRequest struct {
	Dataset string `json:"dataset"`
	Query   []byte `json:"query"`
}

// QueryResponse is one verdict. Version is exactly the dataset maintenance
// version the verdict was computed at (store.Verdict.Version — read with
// the answerer, cache hits included; never an older or partially applied
// state), and versions reported to one client never regress.
type QueryResponse struct {
	Answer  bool   `json:"answer"`
	Version uint64 `json:"version"`
	// Degraded marks a verdict served through the dataset's declared
	// degraded-mode fallback (breaker half-open, or the query budget nearly
	// spent) instead of the primary answer path. Fallbacks are exact — the
	// verdict is the same — but the latency profile is the fallback's, and
	// operators may want to alert on a rising degraded rate. Absent (false)
	// on the primary path, so existing clients see unchanged bodies.
	Degraded bool `json:"degraded,omitempty"`
}

// BatchRequest answers many queries through the AnswerBatch worker pool.
type BatchRequest struct {
	Dataset string   `json:"dataset"`
	Queries [][]byte `json:"queries"`
	// Parallelism bounds the worker pool; <= 0 selects GOMAXPROCS, and the
	// server caps it at maxBatchParallelism.
	Parallelism int `json:"parallelism,omitempty"`
}

// BatchResponse carries the verdicts in query order, all answered against
// one consistent dataset version (see QueryResponse on version semantics).
type BatchResponse struct {
	Answers []bool `json:"answers"`
	Version uint64 `json:"version"`
	// Degraded marks a batch in which at least one verdict was served
	// through the degraded-mode fallback (see QueryResponse.Degraded).
	Degraded bool `json:"degraded,omitempty"`
}

// CacheStats reports the answer cache's counters: hits (served from
// memory), misses (ran the underlying answer), coalesced (waited on
// another caller's in-flight answer for the same key), evictions (dropped
// by the byte budget, which is also how stale-version entries leave), and
// current residency against the configured budget.
type CacheStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Coalesced   int64 `json:"coalesced"`
	Evictions   int64 `json:"evictions"`
	Entries     int64 `json:"entries"`
	Bytes       int64 `json:"bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
}

// BuildInfo identifies the running binary: the toolchain version plus the
// module version and VCS revision when the binary was built from a
// version-controlled checkout (empty otherwise).
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	Dirty     bool   `json:"dirty,omitempty"`
}

var (
	buildInfoOnce sync.Once
	buildInfoVal  BuildInfo
)

// buildInfo reads the binary's build metadata once per process.
func buildInfo() BuildInfo {
	buildInfoOnce.Do(func() {
		buildInfoVal = BuildInfo{GoVersion: runtime.Version()}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if bi.GoVersion != "" {
			buildInfoVal.GoVersion = bi.GoVersion
		}
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			buildInfoVal.Version = v
		}
		for _, set := range bi.Settings {
			switch set.Key {
			case "vcs.revision":
				buildInfoVal.Revision = set.Value
			case "vcs.modified":
				buildInfoVal.Dirty = set.Value == "true"
			}
		}
	})
	return buildInfoVal
}

// stageStats is the wire form of one serve-path stage's latency histogram
// in the /v1/stats "stages" block.
type stageStats struct {
	Count  int64 `json:"count"`
	MeanNs int64 `json:"mean_ns"`
	P50Ns  int64 `json:"p50_ns"`
	P90Ns  int64 `json:"p90_ns"`
	P99Ns  int64 `json:"p99_ns"`
	P999Ns int64 `json:"p999_ns"`
}

// stageStatsSnapshot renders every stage histogram with observations. The
// registry is process-wide, so the counts aggregate across every Server in
// the process (one server per process in production).
func stageStatsSnapshot() map[string]stageStats {
	series := obs.Default.HistogramSeries(obs.StageFamily)
	var m map[string]stageStats
	for _, se := range series {
		var name string
		for _, l := range se.Labels {
			if l.Key == "stage" {
				name = l.Value
			}
		}
		if name == "" || se.Snapshot.Count == 0 {
			continue
		}
		if m == nil {
			m = map[string]stageStats{}
		}
		m[name] = stageStats{
			Count:  se.Snapshot.Count,
			MeanNs: se.Snapshot.Mean().Nanoseconds(),
			P50Ns:  se.Snapshot.Quantile(0.50).Nanoseconds(),
			P90Ns:  se.Snapshot.Quantile(0.90).Nanoseconds(),
			P99Ns:  se.Snapshot.Quantile(0.99).Nanoseconds(),
			P999Ns: se.Snapshot.Quantile(0.999).Nanoseconds(),
		}
	}
	return m
}

// StatsResponse reports serving counters since process start.
type StatsResponse struct {
	Datasets        int   `json:"datasets"`
	PreprocessCalls int64 `json:"preprocess_calls"`
	SnapshotLoads   int64 `json:"snapshot_loads"`
	Queries         int64 `json:"queries"`
	// UptimeS is the seconds since the Server was constructed; Build
	// identifies the binary serving the stats.
	UptimeS float64   `json:"uptime_s"`
	Build   BuildInfo `json:"build"`
	// DeltasApplied counts deltas committed through PATCH; MaintenanceNs
	// sums the wall time spent applying them (incremental maintenance plus
	// snapshot rewriting).
	DeltasApplied int64 `json:"deltas_applied"`
	// DeltasDeleted counts the applied deltas that were delete-kind
	// (tombstones and edge retractions); LogReplays counts delta-log
	// records replayed at registration — nonzero after a crash recovery,
	// zero on a clean checkpointed start.
	DeltasDeleted int64                  `json:"deltas_deleted"`
	LogReplays    int64                  `json:"log_replays"`
	MaintenanceNs int64                  `json:"maintenance_ns"`
	PerScheme     map[string]schemeStats `json:"per_scheme"`
	// Envelope reports the serving envelope: the in-flight gauge, the
	// active limits, and every rejection the envelope has issued (429
	// backpressure, 413 oversized bodies and batches, 503 budget
	// exhaustions). See Limits and Server.SetLimits.
	Envelope EnvelopeStats `json:"envelope"`
	// Cache carries the answer cache counters; absent when no cache is
	// configured (see Server.SetAnswerCache and `pitract serve -cache-bytes`).
	Cache *CacheStats `json:"cache,omitempty"`
	// Stages reports per-stage latency percentiles from the serve-path
	// histograms (the JSON face of the /metrics stage family); absent until
	// a stage has recorded an observation (e.g. while metrics are disabled).
	Stages map[string]stageStats `json:"stages,omitempty"`
	// ArtifactBytes sums the in-memory preprocessed artifact bytes (Π) over
	// completed datasets; SnapshotBytes sums their encoded snapshot sizes —
	// the on-disk footprint a full checkpoint would write, reported whether
	// or not the registry persists. SnapshotCompressionRatio is
	// SnapshotBytes/ArtifactBytes (0 with no artifacts): below 1.0 the v3
	// snapshot codecs and succinct schemes are shrinking the durable form
	// below the served one.
	ArtifactBytes            int64   `json:"artifact_bytes"`
	SnapshotBytes            int64   `json:"snapshot_bytes"`
	SnapshotCompressionRatio float64 `json:"snapshot_compression_ratio"`
	// DegradedAnswers counts verdicts served through a degraded-mode
	// fallback; Quarantines counts artifacts (snapshots or delta logs)
	// renamed aside after failing integrity checks. Healthy steady state
	// is both zero.
	DegradedAnswers int64 `json:"degraded_answers"`
	Quarantines     int64 `json:"quarantines"`
}

type errorResponse struct {
	Error string `json:"error"`
	// RequestID echoes the client's X-Request-ID, so an error body can be
	// matched to the client's own trace. Only set when the client supplied
	// one — generated ids travel in the response header alone.
	RequestID string `json:"request_id,omitempty"`
}

// --- handlers -----------------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, r *http.Request, status int, format string, args ...interface{}) {
	resp := errorResponse{Error: fmt.Sprintf(format, args...)}
	if id, fromClient := clientRequestID(r); fromClient {
		resp.RequestID = id
	}
	writeJSON(w, status, resp)
}

// decodeBody decodes a JSON request body under the envelope's byte cap.
// An oversized body is a 413 naming the limit — it is a well-formed
// request the server refuses by policy, not a malformed one — and every
// other decode failure stays a 400.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	return s.decodeJSON(w, r, http.MaxBytesReader(w, r.Body, s.env.limits.MaxBodyBytes), v)
}

// decodeJSON is decodeBody over a body stream the caller has already put
// under the byte cap (the batch handler replays the bytes it read itself).
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, body io.Reader, v interface{}) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.env.note(r, rejectedBody413)
			writeError(w, r, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", mbe.Limit)
			return false
		}
		writeError(w, r, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// handleHealthz reports liveness plus per-dataset health: a "health" map
// of dataset id → breaker state (healthy/degraded/open/quarantined) and an
// overall status: "ok" when every dataset is healthy, "degraded" when any is
// degraded or quarantined (still 200 — the node is serving, possibly via
// fallbacks), and "unhealthy" with a 503 when any breaker is open, so load
// balancers drain a node whose datasets are refusing traffic.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "use GET")
		return
	}
	states := s.reg.HealthStates()
	health := make(map[string]string, len(states))
	status, code := "ok", http.StatusOK
	for id, st := range states {
		health[id] = st.String()
		switch st {
		case store.HealthOpen:
			status, code = "unhealthy", http.StatusServiceUnavailable
		case store.HealthDegraded, store.HealthQuarantined:
			if status == "ok" {
				status = "degraded"
			}
		}
	}
	writeJSON(w, code, map[string]interface{}{
		"status":   status,
		"datasets": len(states), // one read of the catalog: the count and the map cannot disagree
		"health":   health,
	})
}

// datasetInfo renders one dataset for the wire.
func (s *Server) datasetInfo(ds store.Dataset) DatasetInfo {
	return DatasetInfo{
		ID:        ds.DatasetID(),
		Scheme:    ds.SchemeName(),
		PrepBytes: ds.PrepBytes(),
		Loaded:    ds.WasLoaded(),
		Shards:    ds.ShardCount(),
		Version:   ds.Version(),
		Cached:    s.answerPath(ds) != ds,
	}
}

// handleDatasetByID serves the per-dataset subresource /v1/datasets/{id}:
// GET describes it, PATCH maintains it in place under a batch of deltas.
// The id segment is unescaped exactly once from the ESCAPED path —
// r.URL.Path is already percent-decoded, so unescaping it again would
// mis-address ids containing '%' (and 404 ids like "50%"). Ids with '/'
// are addressable as %2F.
func (s *Server) handleDatasetByID(w http.ResponseWriter, r *http.Request) {
	rawID := strings.TrimPrefix(r.URL.EscapedPath(), "/v1/datasets/")
	id, err := url.PathUnescape(rawID)
	if err != nil || id == "" || strings.Contains(rawID, "/") {
		writeError(w, r, http.StatusNotFound, "bad dataset path %q", r.URL.Path)
		return
	}
	switch r.Method {
	case http.MethodGet:
		ds, _, ok := s.lookup(w, r, id)
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, s.datasetInfo(ds))
	case http.MethodPatch:
		var req PatchRequest
		if !s.decodeBody(w, r, &req) {
			return
		}
		if len(req.Deltas) == 0 {
			writeError(w, r, http.StatusBadRequest, "empty delta batch")
			return
		}
		release, reason, admitted := s.env.admit(id)
		if !admitted {
			s.env.reject429(w, r, reason)
			return
		}
		defer release()
		ds, _, ok := s.lookup(w, r, id)
		if !ok {
			return
		}
		ctx, cancel := s.workContext(r)
		defer cancel()
		start := time.Now()
		version, err := s.reg.ApplyDeltaContext(ctx, id, req.Deltas)
		if err != nil {
			var nf *store.NotFoundError
			var pe *store.PersistError
			var be *store.BudgetError
			switch {
			case errors.As(err, &nf):
				writeError(w, r, http.StatusNotFound, "%v", err)
			case errors.As(err, &be):
				// The batch outran the request budget; by the maintenance
				// atomicity contract nothing was applied. Retryable with a
				// smaller batch or a larger -register-budget.
				s.env.note(r, budgetExceeded)
				writeError(w, r, http.StatusServiceUnavailable, "%v", err)
			case errors.As(err, &pe):
				// The deltas were applicable; writing the durable artifact
				// failed (disk full, I/O error). A server fault, not a
				// conflicting request — nothing was committed.
				writeError(w, r, http.StatusInternalServerError, "%v", err)
			default:
				// Everything else — a scheme with no incremental form, a
				// sharded form without delta routing, a hostile delta
				// payload — is a conflict with the dataset's current state;
				// the dataset, its registry entry, and its snapshot are
				// untouched.
				writeError(w, r, http.StatusConflict, "%v", err)
			}
			return
		}
		s.recordMaintenance(time.Since(start))
		// The ack carries the version this batch committed at — not a later
		// ds.Version() read, which under concurrent writers is another
		// request's.
		info := s.datasetInfo(ds)
		info.Version = version
		writeJSON(w, http.StatusOK, info)
	default:
		writeError(w, r, http.StatusMethodNotAllowed, "use GET or PATCH")
	}
}

// shardingParams resolves the ?shards / ?partitioner query parameters
// against the server defaults. explicit reports whether the client named
// a shard count itself (a defaulted count may quietly fall back to
// unsharded for schemes without a sharded form; an explicit one may not).
// ok=false means the response was already written.
func (s *Server) shardingParams(w http.ResponseWriter, r *http.Request) (shards int, p shard.Partitioner, explicit, ok bool) {
	shards = s.defaultShards
	if raw := r.URL.Query().Get("shards"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeError(w, r, http.StatusBadRequest, "bad shards parameter %q: want a positive integer", raw)
			return 0, nil, false, false
		}
		if n > maxShards {
			writeError(w, r, http.StatusBadRequest, "shards %d exceeds the cap %d", n, maxShards)
			return 0, nil, false, false
		}
		shards, explicit = n, true
	}
	name := r.URL.Query().Get("partitioner")
	if name == "" {
		name = s.defaultPartitioner
	}
	p, err := shard.PartitionerByName(name)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return 0, nil, false, false
	}
	return shards, p, explicit, true
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req RegisterRequest
		if !s.decodeBody(w, r, &req) {
			return
		}
		if req.ID == "" {
			writeError(w, r, http.StatusBadRequest, "missing dataset id")
			return
		}
		scheme, ok := s.catalog[req.Scheme]
		if !ok {
			writeError(w, r, http.StatusBadRequest, "unknown scheme %q (have %v)", req.Scheme, slices.Sorted(maps.Keys(s.catalog)))
			return
		}
		shards, partitioner, explicit, ok := s.shardingParams(w, r)
		if !ok {
			return
		}
		if shards > 1 && shard.ForScheme(req.Scheme) == nil {
			// An explicit ?shards=N for an unshardable scheme is a client
			// error; a server-wide -shards default must not make these
			// schemes unregistrable, so it falls back to unsharded.
			if explicit {
				writeError(w, r, http.StatusBadRequest, "scheme %q has no sharded form (shardable: %v)",
					req.Scheme, shard.ShardableSchemes())
				return
			}
			shards = 1
		}
		release, reason, admitted := s.env.admit(req.ID)
		if !admitted {
			s.env.reject429(w, r, reason)
			return
		}
		defer release()
		ctx, cancel := s.workContext(r)
		defer cancel()
		var ds store.Dataset
		var err error
		if shards > 1 {
			ds, err = shard.RegisterShardedContext(ctx, s.reg, req.ID, scheme, partitioner, shards, req.Data)
		} else {
			ds, err = s.reg.RegisterContext(ctx, req.ID, scheme, req.Data)
		}
		if err != nil {
			var be *store.BudgetError
			var pe *store.PersistError
			switch {
			case errors.As(err, &be):
				// The build outran the request budget and was abandoned: no
				// catalog entry, no snapshot handed out. Retryable with a
				// larger -register-budget.
				s.env.note(r, budgetExceeded)
				writeError(w, r, http.StatusServiceUnavailable, "%v", err)
			case errors.As(err, &pe):
				// The data was registrable; the medium could not be read or
				// written. A server fault, as on the PATCH path — no catalog
				// entry, no persisted file touched.
				writeError(w, r, http.StatusInternalServerError, "%v", err)
			default:
				writeError(w, r, http.StatusConflict, "%v", err)
			}
			return
		}
		writeJSON(w, http.StatusOK, s.datasetInfo(ds))
	case http.MethodGet:
		infos := []DatasetInfo{}
		for _, id := range s.reg.IDs() {
			if ds, ok := s.reg.GetDataset(id); ok {
				infos = append(infos, s.datasetInfo(ds))
			}
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{"datasets": infos})
	default:
		writeError(w, r, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// workContext derives the context a registration or PATCH runs under:
// the request context (so a disconnected client cancels the work it
// asked for) bounded by RegisterBudget when one is configured.
func (s *Server) workContext(r *http.Request) (context.Context, context.CancelFunc) {
	if b := s.env.limits.RegisterBudget; b > 0 {
		return context.WithTimeout(r.Context(), b)
	}
	return context.WithCancel(r.Context())
}

// queryContext derives the context one answer request runs under: the
// request context (a disconnected client abandons its own query) bounded
// by QueryBudget when one is configured. Without a budget it returns a
// non-cancellable context, so AskWithin degenerates to the plain
// answer call and the hot path stays guard-free.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	if b := s.env.limits.QueryBudget; b > 0 {
		return context.WithTimeout(r.Context(), b)
	}
	return context.Background(), func() {}
}

// rejectBreaker writes the open-breaker refusal: 503 Service Unavailable
// with a jittered Retry-After drawn from the breaker's current backoff
// (falling back to the envelope's advertised delay), so synchronized
// clients don't re-trip the breaker in one thundering retry wave.
func (s *Server) rejectBreaker(w http.ResponseWriter, r *http.Request, dataset string, retryAfter time.Duration) {
	s.env.note(r, breaker503)
	if retryAfter <= 0 {
		retryAfter = s.env.limits.RetryAfter
	}
	secs := jitterSeconds(retryAfter)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, r, http.StatusServiceUnavailable,
		"dataset %q health breaker open; retry after %ds", dataset, secs)
}

// answerFailure classifies an answer-path error for the wire and tells
// the dataset's breaker what it proved. A deadline overrun is a 504 and a
// breaker failure (a dataset too slow to answer inside its budget is
// unhealthy); a Prepare failure is a 500 and a breaker failure (the
// dataset cannot answer at all); everything else — malformed queries,
// out-of-range ids — stays the client's 422 and counts as a breaker
// success, because a request that got as far as query classification
// proved the serve path end to end.
func (s *Server) answerFailure(w http.ResponseWriter, r *http.Request, br *store.Breaker, probe bool, err error) {
	var de *store.DeadlineError
	if errors.As(err, &de) {
		br.OnFailure(probe)
		s.env.note(r, deadline504)
		obsDeadlineExpired.Inc()
		writeError(w, r, http.StatusGatewayTimeout, "%v", err)
		return
	}
	var pe *store.PrepareError
	if errors.As(err, &pe) {
		br.OnFailure(probe)
		writeError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	br.OnSuccess(probe)
	writeError(w, r, http.StatusUnprocessableEntity, "%v", err)
}

// lookup resolves a dataset — plain or sharded — and its health breaker,
// both from the one catalog entry.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request, dataset string) (store.Dataset, *store.Breaker, bool) {
	if dataset == "" {
		writeError(w, r, http.StatusBadRequest, "missing dataset id")
		return nil, nil, false
	}
	ds, br, ok := s.reg.Serving(dataset)
	if !ok {
		writeError(w, r, http.StatusNotFound, "dataset %q not registered", dataset)
	}
	return ds, br, ok
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req QueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	s.serveAnswer(w, r, req.Dataset, 1, func(ctx context.Context, ds store.Dataset, mode store.Mode) (interface{}, bool, error) {
		v, err := store.AskWithin(ctx, ds, req.Query, mode)
		return QueryResponse{Answer: v.Answer, Version: v.Version, Degraded: v.Degraded}, v.Degraded, err
	})
}

func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, "use POST")
		return
	}
	req, ok := s.decodeBatchBody(w, r)
	if !ok {
		return
	}
	parallelism := req.Parallelism
	if parallelism > maxBatchParallelism {
		parallelism = maxBatchParallelism
	}
	s.serveAnswer(w, r, req.Dataset, len(req.Queries), func(ctx context.Context, ds store.Dataset, mode store.Mode) (interface{}, bool, error) {
		vs, err := store.AskBatchWithin(ctx, ds, req.Queries, parallelism, mode)
		// A batch that took the fallback — as a whole, or mid-flight with
		// the budget nearly spent — is degraded as a whole: clients see one
		// flag, not a per-verdict split, because every verdict is exact
		// either way.
		degraded := vs.Degraded > 0
		return BatchResponse{Answers: vs.Answers, Version: vs.Version, Degraded: degraded}, degraded, err
	})
}

// serveAnswer is the one path both answer endpoints take once the body is
// decoded: admit → look up → breaker → mode → ask → classify. ask runs the
// request's n queries through ds in the chosen mode under ctx and returns
// the response body (whose version is the one the verdicts were computed
// at) and whether the fallback answered.
func (s *Server) serveAnswer(w http.ResponseWriter, r *http.Request, dataset string, n int,
	ask func(ctx context.Context, ds store.Dataset, mode store.Mode) (body interface{}, degraded bool, err error)) {
	release, reason, admitted := s.env.admit(dataset)
	if !admitted {
		s.env.reject429(w, r, reason)
		return
	}
	defer release()
	ds, br, ok := s.lookup(w, r, dataset)
	if !ok {
		return
	}
	dec := br.Allow()
	if !dec.Admit {
		s.rejectBreaker(w, r, dataset, dec.RetryAfter)
		return
	}
	ds = s.answerPath(ds)
	if dec.Probe {
		// Half-open probe: retry a previously failed Prepare first, so a
		// healed filesystem (or a transient decode fault) closes the
		// breaker. The retry's outcome surfaces through the ask below.
		ds.RetryPrepare()
	}
	mode, ctx := store.Exact, context.Background()
	switch {
	case dec.Degrade && ds.CanDegrade():
		// Degraded answers run without the query budget: the fallback is
		// what the dataset serves *because* the exact path is unhealthy.
		mode = store.Degraded
	case dec.Degrade && !dec.ExactFallback:
		// A probe is already in flight and this dataset declares no
		// fallback: shedding is the only way to keep the half-open window
		// single-probe.
		s.rejectBreaker(w, r, dataset, dec.RetryAfter)
		return
	default:
		var cancel context.CancelFunc
		ctx, cancel = s.queryContext(r)
		defer cancel()
	}
	start := time.Now()
	body, degraded, err := ask(ctx, ds, mode)
	// Count only queries actually answered: a failed ask returns no
	// answers, so its queries count as failed, not served.
	served, failed := n, 0
	if err != nil {
		served, failed = 0, n
	}
	s.record(ds.SchemeName(), served, failed, time.Since(start), err)
	if err != nil {
		s.answerFailure(w, r, br, dec.Probe, err)
		return
	}
	br.OnSuccess(dec.Probe)
	if degraded {
		s.degradedAnswers.Add(1)
		obsDegradedAnswers.Inc()
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "use GET")
		return
	}
	resp := StatsResponse{
		Datasets:        s.reg.Len(),
		PreprocessCalls: s.reg.PreprocessCount(),
		SnapshotLoads:   s.reg.LoadCount(),
		MaintenanceNs:   s.maintenanceNs.Load(),
		UptimeS:         time.Since(s.startTime).Seconds(),
		Build:           buildInfo(),
		PerScheme:       map[string]schemeStats{},
		Envelope:        s.env.stats(),
		Stages:          stageStatsSnapshot(),
	}
	s.stats.Range(func(name, v interface{}) bool {
		st := v.(*schemeCounters).snapshot()
		resp.PerScheme[name.(string)] = st
		resp.Queries += st.Queries
		return true
	})
	resp.DeltasApplied = s.reg.DeltaCount()
	resp.DeltasDeleted = s.reg.DeleteCount()
	resp.LogReplays = s.reg.ReplayCount()
	resp.DegradedAnswers = s.degradedAnswers.Load()
	resp.Quarantines = s.reg.QuarantineCount()
	resp.ArtifactBytes, resp.SnapshotBytes = s.reg.ArtifactStats()
	if resp.ArtifactBytes > 0 {
		resp.SnapshotCompressionRatio = float64(resp.SnapshotBytes) / float64(resp.ArtifactBytes)
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		resp.Cache = &CacheStats{
			Hits: cs.Hits, Misses: cs.Misses, Coalesced: cs.Coalesced,
			Evictions: cs.Evictions, Entries: cs.Entries, Bytes: cs.Bytes,
			BudgetBytes: cs.BudgetBytes,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// recordMaintenance folds one successful PATCH into the latency counter.
func (s *Server) recordMaintenance(elapsed time.Duration) {
	s.maintenanceNs.Add(elapsed.Nanoseconds())
}

// record folds one answer-path call into the per-scheme counters — a few
// atomic adds, so high-QPS serving never bottlenecks on bookkeeping. The
// histogram observation is per call (one batch = one observation), matching
// the latency_ns accumulator it sits next to.
func (s *Server) record(scheme string, served, failed int, elapsed time.Duration, err error) {
	v, ok := s.stats.Load(scheme)
	if !ok {
		v, _ = s.stats.LoadOrStore(scheme, &schemeCounters{hist: obs.AnswerHistogram(scheme)})
	}
	c := v.(*schemeCounters)
	c.queries.Add(int64(served))
	c.latencyNs.Add(elapsed.Nanoseconds())
	c.hist.Observe(elapsed)
	switch scheme {
	case "reachability/closure-matrix":
		obsProbeDense.Observe(elapsed)
	case "reachability/labels":
		obsProbeLabel.Observe(elapsed)
	}
	if failed > 0 {
		c.failed.Add(int64(failed))
	}
	if err != nil {
		c.errors.Add(1)
	}
}
