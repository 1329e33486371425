package server

// The observability surface: GET /metrics exposition conformance, the
// /v1/stats additions (uptime, build info, per-scheme percentiles and
// failures, per-endpoint rejections, stage percentiles), request-ID
// assignment and echo, the slow-query log, and a -race scrape test that
// reads /metrics while query and PATCH traffic mutates every histogram.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pitract/internal/cache"
	"pitract/internal/graph"
	"pitract/internal/obs"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// scrapeMetrics GETs /metrics and returns the body after checking status,
// content type, and exposition-format conformance.
func scrapeMetrics(t *testing.T, client *http.Client, base string) []byte {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckExposition(body); err != nil {
		t.Fatalf("/metrics exposition: %v\n%s", err, body)
	}
	return body
}

// TestMetricsEndpoint drives a register → query → PATCH round and asserts
// the exposition is conformant and covers the serve-path stages that round
// exercised.
func TestMetricsEndpoint(t *testing.T) {
	srv := New(store.NewRegistry(t.TempDir()), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "m", Scheme: "list-membership/sorted", Data: schemes.EncodeList([]int64{1, 2, 3}),
	}, nil); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}
	if code := postJSON(t, client, ts.URL+"/v1/query",
		QueryRequest{Dataset: "m", Query: schemes.PointQuery(2)}, nil); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	if code := patchJSON(t, client, ts.URL+"/v1/datasets/m",
		[][]byte{schemes.KeysDelta([]int64{9})}, nil); code != http.StatusOK {
		t.Fatalf("patch: status %d", code)
	}

	body := string(scrapeMetrics(t, client, ts.URL))
	// The registry is process-wide, so other tests may have added more
	// series; assert containment, never exact counts.
	for _, want := range []string{
		`pitract_stage_duration_seconds_bucket{stage="admission",le="+Inf"}`,
		`pitract_stage_duration_seconds_bucket{stage="preprocess",le="+Inf"}`,
		`pitract_stage_duration_seconds_bucket{stage="patch_apply",le="+Inf"}`,
		`pitract_answer_duration_seconds_bucket{scheme="list-membership/sorted",le="+Inf"}`,
		"# TYPE pitract_stage_duration_seconds histogram",
		"pitract_requests_in_flight",
		"pitract_preprocess_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Non-GET is refused.
	resp, err := client.Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: status %d, want 405", resp.StatusCode)
	}
}

// TestMetricsScrapeRace scrapes /metrics concurrently with query and PATCH
// traffic; under -race this pins the lock-free histograms and the renderer,
// and every scrape must still be a conformant exposition.
func TestMetricsScrapeRace(t *testing.T) {
	srv := New(store.NewRegistry(t.TempDir()), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "r", Scheme: "list-membership/sorted", Data: schemes.EncodeList([]int64{1, 2, 3}),
	}, nil); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}

	const rounds = 20
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			postJSON(t, client, ts.URL+"/v1/query",
				QueryRequest{Dataset: "r", Query: schemes.PointQuery(int64(i))}, nil)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			patchJSON(t, client, ts.URL+"/v1/datasets/r",
				[][]byte{schemes.KeysDelta([]int64{int64(1000 + i)})}, nil)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			scrapeMetrics(t, client, ts.URL)
		}
	}()
	wg.Wait()
	scrapeMetrics(t, client, ts.URL)
}

// TestStatsObservability pins the /v1/stats additions: uptime and build
// info, per-scheme failure counts and latency percentiles, the stage
// percentile block, and the per-endpoint rejection breakdown.
func TestStatsObservability(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	srv.SetLimits(Limits{MaxBodyBytes: 256})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "s", Scheme: "point-selection/sorted-keys",
		Data: schemes.RelationFromKeys([]int64{1, 2, 3}),
	}, nil); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}
	if code := postJSON(t, client, ts.URL+"/v1/query",
		QueryRequest{Dataset: "s", Query: schemes.PointQuery(2)}, nil); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	// One failing query → queries_failed, and one oversized body → the
	// per-endpoint 413 counter.
	if code := postJSON(t, client, ts.URL+"/v1/query",
		QueryRequest{Dataset: "s", Query: []byte{0xFF, 0xFF}}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("malformed query: status %d, want 422", code)
	}
	// Valid JSON shape so the decoder is still mid-parse when it crosses
	// the byte cap — the refusal must be the 413, not a 400 parse error.
	resp, err := client.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"dataset":"`+strings.Repeat("a", 512)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}

	var stats StatsResponse
	if code := getJSON(t, client, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.UptimeS <= 0 {
		t.Errorf("uptime_s = %v, want > 0", stats.UptimeS)
	}
	if stats.Build.GoVersion == "" {
		t.Error("build.go_version empty")
	}
	sch := stats.PerScheme["point-selection/sorted-keys"]
	if sch.QueriesFailed != 1 {
		t.Errorf("queries_failed = %d, want 1", sch.QueriesFailed)
	}
	if sch.P50Ns <= 0 || sch.P999Ns < sch.P50Ns {
		t.Errorf("percentiles not monotone/positive: %+v", sch)
	}
	if stats.Stages["admission"].Count == 0 {
		t.Errorf("stages.admission missing: %+v", stats.Stages)
	}
	ep := stats.Envelope.PerEndpoint["/v1/query"]
	if ep.RejectedBody413 != 1 {
		t.Errorf("per_endpoint /v1/query rejected_body_413 = %d, want 1 (%+v)",
			ep.RejectedBody413, stats.Envelope.PerEndpoint)
	}
}

// TestRequestID pins the tracing contract: a generated id always rides the
// response header; a client-supplied id is echoed in both the header and
// error bodies; implausible inbound ids are replaced.
func TestRequestID(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	// No inbound id: one is generated for the header, and the error body
	// carries no request_id field (byte-stable for id-less clients).
	resp, err := client.Get(ts.URL + "/v1/datasets/ghost")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get(RequestIDHeader) == "" {
		t.Error("no generated X-Request-ID on response")
	}
	if strings.Contains(string(body), "request_id") {
		t.Errorf("generated id leaked into error body: %s", body)
	}

	// Inbound id: echoed in the header and the error body.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/datasets/ghost", nil)
	req.Header.Set(RequestIDHeader, "doc-1")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "doc-1" {
		t.Errorf("inbound id not echoed: header %q", got)
	}
	var e struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.RequestID != "doc-1" {
		t.Errorf("inbound id not in error body: %s (err %v)", body, err)
	}

	// Implausible inbound ids (oversized, non-printable) are replaced.
	for _, bad := range []string{strings.Repeat("x", 200), "a b"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		req.Header.Set(RequestIDHeader, bad)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get(RequestIDHeader); got == bad || got == "" {
			t.Errorf("implausible id %q not replaced (got %q)", bad, got)
		}
	}
}

// TestRequestLogging pins the structured request log and the slow-query
// log: with a logger installed and a zero-distance threshold, one request
// produces a Debug request line and a Warn slow-request line, both carrying
// the request id.
func TestRequestLogging(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	var buf bytes.Buffer
	var mu sync.Mutex
	srv.SetLogger(slog.New(slog.NewJSONHandler(&lockedWriter{w: &buf, mu: &mu},
		&slog.HandlerOptions{Level: slog.LevelDebug})))
	srv.SetSlowQueryThreshold(time.Nanosecond)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set(RequestIDHeader, "log-1")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, `"msg":"request"`) {
		t.Errorf("no request log line: %s", out)
	}
	if !strings.Contains(out, `"msg":"slow request"`) {
		t.Errorf("no slow-query log line: %s", out)
	}
	if !strings.Contains(out, `"request_id":"log-1"`) {
		t.Errorf("request id missing from log: %s", out)
	}
	if !strings.Contains(out, `"path":"/healthz"`) || !strings.Contains(out, `"status":200`) {
		t.Errorf("request fields missing from log: %s", out)
	}
}

// lockedWriter serializes writes so the slog handler and the test's reads
// never race.
type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestMetricsAnswerCache: with a cache set, /metrics carries the cache's
// counters and residency — read from cache.Stats() at render time — so
// cache placement is visible to a scraper: two identical queries on a
// traversal dataset read as one miss and one hit. (The registry is
// process-wide, so their absence without a cache is pinned at the obs
// layer and by CI's live smoke, not here.)
func TestMetricsAnswerCache(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	c := cache.New(1 << 20)
	srv.SetAnswerCache(c)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "g", Scheme: "reachability/bfs-per-query", Data: graph.Path(4, true).Encode(),
	}, nil); code != http.StatusOK {
		t.Fatalf("register status %d", code)
	}
	for i := 0; i < 2; i++ {
		if code := postJSON(t, client, ts.URL+"/v1/query", QueryRequest{Dataset: "g", Query: schemes.NodePairQuery(0, 3)}, nil); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	body := string(scrapeMetrics(t, client, ts.URL))
	for _, want := range []string{
		"# TYPE pitract_answer_cache_hits_total counter\npitract_answer_cache_hits_total 1\n",
		"# TYPE pitract_answer_cache_misses_total counter\npitract_answer_cache_misses_total 1\n",
		"# TYPE pitract_answer_cache_coalesced_total counter\npitract_answer_cache_coalesced_total 0\n",
		"# TYPE pitract_answer_cache_evictions_total counter\npitract_answer_cache_evictions_total 0\n",
		fmt.Sprintf("# TYPE pitract_answer_cache_resident_bytes gauge\npitract_answer_cache_resident_bytes %d\n", c.Stats().Bytes),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if c.Stats().Bytes <= 0 {
		t.Fatalf("one resident verdict reads as %d bytes", c.Stats().Bytes)
	}
}
