package server

// The serving envelope: admission control, request budgets, and
// backpressure for the answering face of the preprocess-once/answer-many
// asymmetry. The paper's asymmetry only pays off if the NC answer path
// survives real traffic — a *valid* huge registration, an uncapped batch,
// or a saturating client can starve the node just as surely as a hostile
// payload (which PR 2's decoder bounds already stop). The envelope states
// the degraded mode instead of collapsing: work beyond the configured
// concurrency limits is refused with 429 + Retry-After (backpressure, not
// an unbounded queue), oversized bodies and batches are refused with 413
// naming the limit, and registrations or delta batches that outrun their
// wall budget are abandoned with 503 and no catalog side effects. Every
// rejection and the live in-flight gauge are surfaced in /v1/stats, so an
// operator can see the envelope working rather than infer it from latency.

import (
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pitract/internal/obs"
)

// obsAdmission times every admission decision (wait + verdict); the
// envelope's try-acquire design means waits are bounded by lock contention,
// and this histogram is what proves that stays true under load.
var obsAdmission = obs.Stage(obs.StageAdmission)

// Default envelope limits: wide enough that every existing workload in
// this repository is unaffected, finite enough that no single request can
// exhaust the node.
const (
	// DefaultMaxBodyBytes caps request bodies (registration data and query
	// batches are buffered in memory). 64 MiB fits every workload in this
	// repository with room to spare.
	DefaultMaxBodyBytes = 64 << 20
	// DefaultMaxBatchQueries caps len(BatchRequest.Queries): each query is
	// decoded and answered, so an unbounded batch is an unbounded work
	// order riding one request.
	DefaultMaxBatchQueries = 4096
	// DefaultRetryAfter is advertised in the Retry-After header of every
	// 429 when Limits.RetryAfter is unset.
	DefaultRetryAfter = time.Second
)

// Limits configures the serving envelope. The zero value of a field keeps
// its documented default (for the caps) or disables the limit (for the
// concurrency and budget knobs), so Limits{} reproduces the pre-envelope
// behavior with finite body/batch caps. Set it before serving traffic via
// Server.SetLimits — the server face of the `pitract serve` -max-* and
// -register-budget flags.
type Limits struct {
	// MaxBodyBytes caps every request body; requests over it are refused
	// with 413 naming the limit. 0 selects DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxBatchQueries caps len(BatchRequest.Queries); larger batches are
	// refused with 413 naming the limit. 0 selects DefaultMaxBatchQueries.
	MaxBatchQueries int
	// MaxInFlight caps concurrently admitted work requests across the
	// whole server (registrations, PATCHes, queries, and batches); work
	// beyond it is refused with 429 + Retry-After instead of queueing.
	// Observability endpoints (/healthz, /v1/stats, GETs) are never
	// metered — the envelope must stay visible under saturation. 0 = no
	// global limit.
	MaxInFlight int
	// MaxInFlightPerDataset caps concurrently admitted work requests per
	// dataset id, so one hot dataset cannot starve the rest of the
	// catalog. 0 = no per-dataset limit.
	MaxInFlightPerDataset int
	// RegisterBudget bounds the wall time of one registration or PATCH:
	// the request context's deadline is threaded into
	// Registry.RegisterContext / ApplyDeltaContext, and work that outruns
	// it is abandoned with 503 and no catalog entry (registration) or
	// nothing applied (PATCH). 0 = no budget.
	RegisterBudget time.Duration
	// RetryAfter is the base delay advertised in the Retry-After header
	// of every 429 (and of breaker 503s). The advertised value is
	// jittered ±20% per response so synchronized clients don't retry in
	// lockstep. 0 selects DefaultRetryAfter.
	RetryAfter time.Duration
	// QueryBudget bounds the wall time of one query or batch: the
	// request context's deadline is threaded through the store answer
	// path (and the sharded fan-out), and work that outruns it is
	// abandoned with 504 — the worker's result is dropped, never left
	// holding the pool. 0 = no budget.
	QueryBudget time.Duration
}

// withDefaults resolves the zero-value fields to their documented
// defaults.
func (l Limits) withDefaults() Limits {
	if l.MaxBodyBytes <= 0 {
		l.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if l.MaxBatchQueries <= 0 {
		l.MaxBatchQueries = DefaultMaxBatchQueries
	}
	if l.MaxInFlight < 0 {
		l.MaxInFlight = 0
	}
	if l.MaxInFlightPerDataset < 0 {
		l.MaxInFlightPerDataset = 0
	}
	if l.RetryAfter <= 0 {
		l.RetryAfter = DefaultRetryAfter
	}
	if l.QueryBudget < 0 {
		l.QueryBudget = 0
	}
	return l
}

// rejection enumerates what the envelope counts, per endpoint.
type rejection int

const (
	rejected429 rejection = iota
	rejectedBody413
	rejectedBatch413
	budgetExceeded
	deadline504
	breaker503
	nRejections
)

// Rejections is the wire form of one set of rejection counters.
type Rejections struct {
	// Rejected429 counts requests refused by the concurrency limits
	// (global or per-dataset) with 429 + Retry-After.
	Rejected429 int64 `json:"rejected_429"`
	// RejectedBody413 counts requests refused for an oversized body.
	RejectedBody413 int64 `json:"rejected_body_413"`
	// RejectedBatch413 counts batch requests refused for too many queries.
	RejectedBatch413 int64 `json:"rejected_batch_413"`
	// BudgetExceeded counts registrations and PATCHes abandoned with 503
	// after outrunning RegisterBudget.
	BudgetExceeded int64 `json:"budget_exceeded"`
	// Deadline504 counts queries and batches abandoned with 504 after
	// outrunning QueryBudget.
	Deadline504 int64 `json:"deadline_504"`
	// Breaker503 counts requests refused fast because the dataset's
	// circuit breaker was open.
	Breaker503 int64 `json:"breaker_503"`
}

// wire renders counts, indexed by rejection, in the wire form.
func wire(counts [nRejections]int64) Rejections {
	return Rejections{
		Rejected429:      counts[rejected429],
		RejectedBody413:  counts[rejectedBody413],
		RejectedBatch413: counts[rejectedBatch413],
		BudgetExceeded:   counts[budgetExceeded],
		Deadline504:      counts[deadline504],
		Breaker503:       counts[breaker503],
	}
}

// EnvelopeStats is the wire form of the envelope's gauges, counters, and
// active limits — the /v1/stats "envelope" block. The limits ride along so
// an operator reading the stats sees the envelope the counters were
// produced under (0 = unlimited / no budget).
type EnvelopeStats struct {
	// InFlight is the number of work requests currently admitted.
	InFlight int64 `json:"in_flight"`
	// The active limits (see Limits; 0 = unlimited / no budget).
	MaxInFlight           int   `json:"max_in_flight"`
	MaxInFlightPerDataset int   `json:"max_in_flight_per_dataset"`
	MaxBodyBytes          int64 `json:"max_body_bytes"`
	MaxBatchQueries       int   `json:"max_batch_queries"`
	RegisterBudgetMs      int64 `json:"register_budget_ms"`
	QueryBudgetMs         int64 `json:"query_budget_ms"`
	// Rejections counts every refusal the envelope has issued: the sum of
	// PerEndpoint.
	Rejections
	// PerEndpoint breaks the rejection counters down by endpoint (the
	// dataset subresource is collapsed to "/v1/datasets/{id}"). Absent until
	// the first rejection, so the zero-traffic stats block stays compact.
	PerEndpoint map[string]EndpointRejections `json:"per_endpoint,omitempty"`
}

// EndpointRejections is one endpoint's slice of the envelope rejection
// counters: Rejections with the zero counters left out.
type EndpointRejections struct {
	Rejected429      int64 `json:"rejected_429,omitempty"`
	RejectedBody413  int64 `json:"rejected_body_413,omitempty"`
	RejectedBatch413 int64 `json:"rejected_batch_413,omitempty"`
	BudgetExceeded   int64 `json:"budget_exceeded,omitempty"`
	Deadline504      int64 `json:"deadline_504,omitempty"`
	Breaker503       int64 `json:"breaker_503,omitempty"`
}

// endpointLabel collapses a request path to its endpoint identity, so the
// per-endpoint map cannot be grown unboundedly by per-dataset paths.
func endpointLabel(path string) string {
	if strings.HasPrefix(path, "/v1/datasets/") && path != "/v1/datasets/" {
		return "/v1/datasets/{id}"
	}
	return path
}

// envelope enforces Limits: non-blocking admission against a global and a
// per-dataset in-flight cap, plus the rejection counters /v1/stats
// reports. Admission is deliberately try-acquire — refused work is
// answered 429 immediately rather than parked in an unbounded queue whose
// latency would collapse the node anyway (clients hold the retry state,
// per Retry-After).
type envelope struct {
	limits Limits

	inFlight atomic.Int64

	// mu guards perDataset. Entries exist only while a dataset has
	// admitted requests (release deletes on zero), so hostile never-seen
	// dataset ids cannot grow the map without also holding slots.
	mu         sync.Mutex
	perDataset map[string]int

	// byEndpoint maps an endpointLabel to its *[nRejections]atomic.Int64 — the
	// only rejection counters there are; the server-wide figures are their sum.
	// Entries are created only on a rejection, so the map stays empty (and
	// invisible in /v1/stats) on a healthy node, and endpointLabel bounds its
	// cardinality.
	byEndpoint sync.Map
}

// newEnvelope returns an envelope enforcing l (with defaults resolved).
func newEnvelope(l Limits) *envelope {
	return &envelope{limits: l.withDefaults(), perDataset: map[string]int{}}
}

// note counts one rejection against r's endpoint.
func (ev *envelope) note(r *http.Request, kind rejection) {
	label := endpointLabel(r.URL.Path)
	v, ok := ev.byEndpoint.Load(label)
	if !ok {
		v, _ = ev.byEndpoint.LoadOrStore(label, new([nRejections]atomic.Int64))
	}
	v.(*[nRejections]atomic.Int64)[kind].Add(1)
}

// admit tries to admit one work request against dataset (may be "" for
// requests not addressed to a dataset yet). On success it returns a
// release func the caller must defer, and ok=true. On refusal it returns
// ok=false with the human-readable reason for the 429 body; nothing is
// held.
func (ev *envelope) admit(dataset string) (release func(), reason string, ok bool) {
	defer obsAdmission.Since(obs.Start())
	n := ev.inFlight.Add(1)
	if max := ev.limits.MaxInFlight; max > 0 && n > int64(max) {
		ev.inFlight.Add(-1)
		return nil, fmt.Sprintf("server at capacity (%d in flight)", max), false
	}
	if max := ev.limits.MaxInFlightPerDataset; max > 0 && dataset != "" {
		ev.mu.Lock()
		if ev.perDataset[dataset] >= max {
			ev.mu.Unlock()
			ev.inFlight.Add(-1)
			return nil, fmt.Sprintf("dataset %q at capacity (%d in flight)", dataset, max), false
		}
		ev.perDataset[dataset]++
		ev.mu.Unlock()
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if ev.limits.MaxInFlightPerDataset > 0 && dataset != "" {
				ev.mu.Lock()
				if ev.perDataset[dataset]--; ev.perDataset[dataset] <= 0 {
					delete(ev.perDataset, dataset)
				}
				ev.mu.Unlock()
			}
			ev.inFlight.Add(-1)
		})
	}, "", true
}

// jitterSeconds renders a Retry-After delay in whole seconds (the
// header's delta-seconds form), jittered ±20% so clients rejected in
// the same instant don't retry in the same instant, and at least 1.
// The 1s default base always renders as 1 (0.8–1.2s rounds to 1), so
// the documented examples stay byte-stable.
func jitterSeconds(base time.Duration) int {
	j := time.Duration(float64(base) * (0.8 + 0.4*rand.Float64()))
	s := int((j + time.Second/2) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// retryAfterSeconds renders the envelope's advertised Retry-After delay,
// jittered.
func (ev *envelope) retryAfterSeconds() int {
	return jitterSeconds(ev.limits.RetryAfter)
}

// reject429 writes the backpressure response: 429 Too Many Requests with
// the Retry-After header and the reason in the error body, and counts it.
func (ev *envelope) reject429(w http.ResponseWriter, r *http.Request, reason string) {
	ev.note(r, rejected429)
	secs := ev.retryAfterSeconds()
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, r, http.StatusTooManyRequests, "%s; retry after %ds", reason, secs)
}

// stats snapshots the envelope for /v1/stats.
func (ev *envelope) stats() EnvelopeStats {
	var per map[string]EndpointRejections
	var total [nRejections]int64
	ev.byEndpoint.Range(func(k, v any) bool {
		if per == nil {
			per = map[string]EndpointRejections{}
		}
		live := v.(*[nRejections]atomic.Int64)
		var counts [nRejections]int64
		for kind := range counts {
			counts[kind] = live[kind].Load()
			total[kind] += counts[kind]
		}
		per[k.(string)] = EndpointRejections(wire(counts))
		return true
	})
	return EnvelopeStats{
		InFlight:              ev.inFlight.Load(),
		MaxInFlight:           ev.limits.MaxInFlight,
		MaxInFlightPerDataset: ev.limits.MaxInFlightPerDataset,
		MaxBodyBytes:          ev.limits.MaxBodyBytes,
		MaxBatchQueries:       ev.limits.MaxBatchQueries,
		RegisterBudgetMs:      ev.limits.RegisterBudget.Milliseconds(),
		QueryBudgetMs:         ev.limits.QueryBudget.Milliseconds(),
		Rejections:            wire(total),
		PerEndpoint:           per,
	}
}
