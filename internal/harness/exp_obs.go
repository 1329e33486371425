package harness

// X8 measures what the observability layer itself costs on the serve
// path: the same single-query HTTP workload is driven through the server
// handler with metrics recording enabled (the shipped default) and with
// the obs kill switch thrown (no clock reads, no atomic bucket writes),
// in alternating rounds so CPU-frequency drift and allocator state hit
// both modes equally. The headline is the relative QPS overhead — the
// instrumentation exists to watch the paper's NC answer path, so it must
// not itself erode that path. The experiment takes the best round per
// mode (minimum is the standard noise filter for same-work loops) and
// also reports per-request p99 under each mode.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"pitract/internal/obs"
	"pitract/internal/schemes"
	"pitract/internal/server"
	"pitract/internal/store"
)

// x8Round drives requests pre-encoded bodies through h and returns the
// total wall time plus the sorted per-request latencies.
func x8Round(h http.Handler, bodies [][]byte) (time.Duration, []time.Duration, error) {
	lat := make([]time.Duration, len(bodies))
	roundStart := time.Now()
	for i, body := range bodies {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		lat[i] = time.Since(start)
		if rec.Code != http.StatusOK {
			return 0, nil, fmt.Errorf("X8: query %d: status %d (%s)", i, rec.Code, rec.Body.String())
		}
	}
	total := time.Since(roundStart)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return total, lat, nil
}

// x8Mode is one instrumentation mode's best-round measurement.
type x8Mode struct {
	name     string
	requests int
	bestNs   float64 // best-round total, ns
	p99      time.Duration
}

// x8Measure runs the alternating-round comparison. The handler is driven
// in-process (httptest recorder, no sockets) so the measured delta is the
// instrumentation, not localhost networking.
func x8Measure(s Scale) (on, off x8Mode, err error) {
	requests := 4000
	rounds := 6
	if s == Full {
		requests = 20000
		rounds = 8
	}

	srv := server.New(store.NewRegistry(""), nil)
	h := srv.Handler()
	reg, _ := json.Marshal(server.RegisterRequest{
		ID: "x8", Scheme: "list-membership/sorted",
		Data: schemes.EncodeList([]int64{1, 3, 5, 7, 9, 11}),
	})
	req := httptest.NewRequest(http.MethodPost, "/v1/datasets", bytes.NewReader(reg))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return on, off, fmt.Errorf("X8: register: status %d (%s)", rec.Code, rec.Body.String())
	}
	bodies := make([][]byte, requests)
	for i := range bodies {
		bodies[i], _ = json.Marshal(server.QueryRequest{
			Dataset: "x8", Query: schemes.PointQuery(int64(2*i + 1)),
		})
	}

	// The kill switch is process-wide; restore the shipped default whatever
	// happens below.
	defer obs.SetEnabled(true)

	// One untimed warmup round per mode brings the handler to steady state
	// (scheme-counter sync.Map entries, JSON decoder buffers, warm caches)
	// before anything is compared — round totals are small enough that a
	// first-round page fault would otherwise masquerade as overhead.
	for _, enabled := range []bool{true, false} {
		obs.SetEnabled(enabled)
		if _, _, err := x8Round(h, bodies); err != nil {
			return on, off, err
		}
	}

	on = x8Mode{name: "instrumented", requests: requests}
	off = x8Mode{name: "uninstrumented", requests: requests}
	for r := 0; r < rounds; r++ {
		for _, m := range []struct {
			enabled bool
			mode    *x8Mode
		}{{true, &on}, {false, &off}} {
			obs.SetEnabled(m.enabled)
			total, lat, err := x8Round(h, bodies)
			if err != nil {
				return on, off, err
			}
			if ns := float64(total.Nanoseconds()); m.mode.bestNs == 0 || ns < m.mode.bestNs {
				m.mode.bestNs = ns
				m.mode.p99 = lat[len(lat)*99/100]
			}
		}
	}
	return on, off, nil
}

// x8OverheadPct is the relative QPS cost of instrumentation, floored at
// zero (jitter can make the instrumented round win; a negative overhead is
// noise, not a speedup).
func x8OverheadPct(on, off x8Mode) float64 {
	if off.bestNs <= 0 {
		return 0
	}
	pct := 100 * (on.bestNs - off.bestNs) / off.bestNs
	if pct < 0 {
		return 0
	}
	return pct
}

// X8ObsOverhead renders the instrumentation-overhead experiment.
func X8ObsOverhead(s Scale) (*Table, error) {
	on, off, err := x8Measure(s)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "X8",
		Title:   "observability overhead: instrumented vs uninstrumented serve path",
		Columns: []string{"mode", "requests", "qps", "p99 µs"},
	}
	for _, m := range []x8Mode{on, off} {
		qps := 1e9 * float64(m.requests) / m.bestNs
		t.AddRow(m.name, m.requests, qps, float64(m.p99.Nanoseconds())/1e3)
	}
	t.Note("same handler, same bodies, alternating rounds; best round per mode (in-process, no sockets)")
	t.Note("instrumentation overhead: %.1f%% QPS — per request the obs layer is a few clock reads and lock-free atomic adds against a JSON-dominated handler", x8OverheadPct(on, off))
	return t, nil
}

// X8OverheadMetrics reports the headline numbers — the relative QPS
// overhead of instrumentation and the instrumented QPS — for BenchmarkX8,
// so the benchmark output tracks the cost of the observability layer from this
// PR on.
func X8OverheadMetrics(s Scale) (overheadPct, instrumentedQPS float64, err error) {
	on, off, err := x8Measure(s)
	if err != nil {
		return 0, 0, err
	}
	return x8OverheadPct(on, off), 1e9 * float64(on.requests) / on.bestNs, nil
}
