package server

// The graceful-degradation suite for the HTTP layer: /healthz's
// per-dataset health map, the breaker trip → fast 503 + jittered Retry-After → half-open
// probe heal cycle, degraded fallback answers carrying "degraded": true
// with exact verdicts, the per-query deadline's 504 taxonomy, and the
// ±20% Retry-After jitter bounds every advisory header obeys.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pitract/internal/core"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// TestRetryAfterJitterBounds pins the advisory-header jitter: a 10s base
// renders within ±20% (8..12 seconds inclusive), actually varies across
// draws, and a 1s base — the documented examples' case — always renders
// exactly "1" so the replayed doc bodies stay byte-stable.
func TestRetryAfterJitterBounds(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		got := jitterSeconds(10 * time.Second)
		if got < 8 || got > 12 {
			t.Fatalf("jitterSeconds(10s) = %d, want within [8, 12] (±20%%)", got)
		}
		seen[got] = true
	}
	if len(seen) < 2 {
		t.Fatalf("jitterSeconds(10s) returned only %v over 200 draws; the jitter is not jittering", seen)
	}
	for i := 0; i < 200; i++ {
		if got := jitterSeconds(time.Second); got != 1 {
			t.Fatalf("jitterSeconds(1s) = %d, want 1 (the documented Retry-After examples pin it)", got)
		}
	}
	if got := jitterSeconds(0); got < 1 {
		t.Fatalf("jitterSeconds(0) = %d, want >= 1 (Retry-After must never advise 0)", got)
	}
}

// TestHealthzHealthMap pins the /healthz shape: a per-dataset health map
// with an overall status.
func TestHealthzHealthMap(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	for _, id := range []string{"m", "m2"} {
		if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
			ID: id, Scheme: "point-selection/sorted-keys", Data: schemes.RelationFromKeys([]int64{2, 4}),
		}, nil); code != http.StatusOK {
			t.Fatalf("register %s status %d", id, code)
		}
	}

	var got struct {
		Status   string            `json:"status"`
		Datasets int               `json:"datasets"`
		Health   map[string]string `json:"health"`
	}
	if code := getJSON(t, client, ts.URL+"/healthz", &got); code != http.StatusOK {
		t.Fatalf("healthz status %d, want 200", code)
	}
	if got.Status != "ok" || got.Datasets != 2 {
		t.Fatalf("healthz = %+v, want status ok over 2 datasets", got)
	}
	if got.Health["m"] != "healthy" || got.Health["m2"] != "healthy" {
		t.Fatalf("health map %v, want both datasets healthy", got.Health)
	}

	// The count and the map come from one read of the catalog: while
	// registrations settle concurrently, no body may count a dataset its
	// health map does not list.
	const more = 16
	var wg sync.WaitGroup
	for i := 0; i < more; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.reg.Register(fmt.Sprintf("c%d", i), schemes.PointSelectionScheme(), schemes.RelationFromKeys([]int64{int64(i)})); err != nil {
				t.Error(err)
			}
		}()
	}
	for got.Datasets < 2+more && !t.Failed() {
		got.Health = nil
		if code := getJSON(t, client, ts.URL+"/healthz", &got); code != http.StatusOK {
			t.Fatalf("healthz status %d, want 200", code)
		}
		if got.Datasets != len(got.Health) {
			t.Fatalf("healthz counts %d datasets beside %d health entries", got.Datasets, len(got.Health))
		}
	}
	wg.Wait()
}

// flakyPrepareCatalog returns a catalog with one scheme whose prepared
// answerer fails until healed flips true — the shape of a transient
// decode fault on the serving path — with fallback deciding whether the
// scheme also declares a degraded-mode answerer. Verdict: first query
// byte is even.
func flakyPrepareCatalog(healed *atomic.Bool, fallback bool) map[string]*core.Scheme {
	verdict := func(q []byte) (bool, error) { return len(q) > 0 && q[0]%2 == 0, nil }
	sch := &core.Scheme{
		SchemeName: "test/flaky-prepare",
		Preprocess: func(d []byte) ([]byte, error) { return d, nil },
		Answer:     func(pd, q []byte) (bool, error) { return verdict(q) },
		PrepareAnswerer: func(pd []byte) (core.Answerer, error) {
			if !healed.Load() {
				return nil, fmt.Errorf("injected decode fault")
			}
			return core.AnswererFunc(verdict), nil
		},
	}
	if fallback {
		sch.PrepareFallback = func(pd []byte) (core.Answerer, error) {
			return core.AnswererFunc(verdict), nil
		}
	}
	return map[string]*core.Scheme{sch.SchemeName: sch}
}

// TestBreakerTripsRefusesAndHeals walks the full breaker cycle over
// HTTP: repeated 500s (a sticky Prepare fault) trip the dataset open,
// an open breaker refuses fast with 503 + Retry-After and turns
// /healthz unhealthy, and — once the fault heals — the first admitted
// request past the backoff probes the exact path, retries the failed
// Prepare, and closes the breaker without any re-registration.
func TestBreakerTripsRefusesAndHeals(t *testing.T) {
	var healed atomic.Bool
	srv := New(store.NewRegistry(""), flakyPrepareCatalog(&healed, false))
	srv.Registry().SetBreakerConfig(store.BreakerConfig{
		Window: time.Second, DegradedAfter: 2, OpenAfter: 3,
		Backoff: 50 * time.Millisecond, MaxBackoff: 400 * time.Millisecond,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	// Registration survives the Prepare fault (it is sticky, not fatal).
	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "d", Scheme: "test/flaky-prepare", Data: []byte{1},
	}, nil); code != http.StatusOK {
		t.Fatalf("register status %d", code)
	}

	// Three server-shaped failures walk healthy → degraded → open. The
	// degraded decision still takes the exact path (no declared fallback,
	// ExactFallback holds), so each query surfaces the 500.
	for i := 0; i < 3; i++ {
		var e errorResponse
		if code := postJSON(t, client, ts.URL+"/v1/query", QueryRequest{
			Dataset: "d", Query: []byte{2},
		}, &e); code != http.StatusInternalServerError {
			t.Fatalf("query %d over a failed Prepare got status %d (%s), want 500", i, code, e.Error)
		}
	}

	// Open: refused fast, Retry-After advertised, /healthz drains the node.
	resp, err := client.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"dataset":"d","query":"Ag=="}`))
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker got status %d (%s), want 503", resp.StatusCode, e.Error)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("open-breaker 503 missing Retry-After")
	}
	if !strings.Contains(e.Error, `dataset "d" health breaker open`) {
		t.Fatalf("503 error %q does not name the open breaker", e.Error)
	}
	var hz struct {
		Status string            `json:"status"`
		Health map[string]string `json:"health"`
	}
	if code := getJSON(t, client, ts.URL+"/healthz", &hz); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with an open breaker got status %d, want 503", code)
	}
	if hz.Status != "unhealthy" || hz.Health["d"] != "open" {
		t.Fatalf("healthz = %+v, want unhealthy with dataset d open", hz)
	}
	if st := envStats(t, client, ts.URL); st.Breaker503 != 1 {
		t.Fatalf("breaker_503 = %d, want 1", st.Breaker503)
	}

	// Heal the fault and wait out the backoff: the next request is the
	// half-open probe — it retries the Prepare and closes the breaker.
	healed.Store(true)
	time.Sleep(100 * time.Millisecond)
	var qr QueryResponse
	if code := postJSON(t, client, ts.URL+"/v1/query", QueryRequest{
		Dataset: "d", Query: []byte{2},
	}, &qr); code != http.StatusOK {
		t.Fatalf("probe after heal got status %d, want 200", code)
	}
	if !qr.Answer || qr.Degraded {
		t.Fatalf("probe answered (%v, degraded %v), want the exact (true, false)", qr.Answer, qr.Degraded)
	}
	if code := getJSON(t, client, ts.URL+"/healthz", &hz); code != http.StatusOK || hz.Health["d"] != "healthy" {
		t.Fatalf("healthz after heal = status %d %+v, want 200 and healthy", code, hz)
	}
}

// TestDegradedAnswersExactAndFlagged pins degraded-mode answering over
// HTTP: a degraded dataset with a declared fallback serves 200s with
// "degraded": true, every verdict identical to the exact oracle, and the
// stats counter accounting for each degraded response.
func TestDegradedAnswersExactAndFlagged(t *testing.T) {
	var healed atomic.Bool
	srv := New(store.NewRegistry(""), flakyPrepareCatalog(&healed, true))
	srv.Registry().SetBreakerConfig(store.BreakerConfig{
		Window: time.Minute, DegradedAfter: 2, OpenAfter: 100,
		Backoff: 50 * time.Millisecond,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "d", Scheme: "test/flaky-prepare", Data: []byte{1},
	}, nil); code != http.StatusOK {
		t.Fatalf("register status %d", code)
	}
	// Two sticky-Prepare 500s enter Degraded.
	for i := 0; i < 2; i++ {
		if code := postJSON(t, client, ts.URL+"/v1/query", QueryRequest{
			Dataset: "d", Query: []byte{2},
		}, nil); code != http.StatusInternalServerError {
			t.Fatalf("query %d got status %d, want 500", i, code)
		}
	}

	// Degraded + declared fallback: answers flow again, flagged, exact.
	for _, tc := range []struct {
		query []byte
		want  bool
	}{{[]byte{2}, true}, {[]byte{3}, false}} {
		var qr QueryResponse
		if code := postJSON(t, client, ts.URL+"/v1/query", QueryRequest{
			Dataset: "d", Query: tc.query,
		}, &qr); code != http.StatusOK {
			t.Fatalf("degraded query got status %d, want 200", code)
		}
		if !qr.Degraded {
			t.Fatal("degraded answer not flagged degraded")
		}
		if qr.Answer != tc.want {
			t.Fatalf("degraded verdict %v for query %v, exact oracle says %v — degradation changed an answer",
				qr.Answer, tc.query, tc.want)
		}
	}
	var br BatchResponse
	if code := postJSON(t, client, ts.URL+"/v1/query/batch", BatchRequest{
		Dataset: "d", Queries: [][]byte{{2}, {3}, {4}},
	}, &br); code != http.StatusOK {
		t.Fatalf("degraded batch got status %d, want 200", code)
	}
	if !br.Degraded || len(br.Answers) != 3 || !br.Answers[0] || br.Answers[1] || !br.Answers[2] {
		t.Fatalf("degraded batch = %+v, want flagged [true false true]", br)
	}

	var stats StatsResponse
	if code := getJSON(t, client, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.DegradedAnswers != 3 {
		t.Fatalf("degraded_answers = %d, want 3 (two queries + one batch)", stats.DegradedAnswers)
	}
	// Degraded, not unhealthy: the node keeps serving, /healthz says so.
	var hz struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, client, ts.URL+"/healthz", &hz); code != http.StatusOK || hz.Status != "degraded" {
		t.Fatalf("healthz = status %d %q, want 200 degraded", code, hz.Status)
	}
}

// TestQueryBudget504 pins the per-query deadline taxonomy: a query (and
// a batch) that outruns QueryBudget is abandoned with a 504 naming the
// budget, counted in the envelope stats, and the dataset keeps serving
// in-budget queries afterwards. A deadline overrun is also a breaker
// failure: two 504s degrade the dataset, a third opens it (fast 503 +
// Retry-After), and once the stall clears the half-open probe heals it.
func TestQueryBudget504(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	srv := New(store.NewRegistry(""), blockingCatalog(gate, entered))
	srv.Registry().SetBreakerConfig(store.BreakerConfig{
		DegradedAfter: 2, OpenAfter: 3, Backoff: 50 * time.Millisecond,
	})
	srv.SetLimits(Limits{QueryBudget: 40 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "d", Scheme: "test/blocking", Data: []byte{1},
	}, nil); code != http.StatusOK {
		t.Fatalf("register status %d", code)
	}

	var e errorResponse
	if code := postJSON(t, client, ts.URL+"/v1/query", QueryRequest{
		Dataset: "d", Query: []byte("block"),
	}, &e); code != http.StatusGatewayTimeout {
		t.Fatalf("over-budget query got status %d (%s), want 504", code, e.Error)
	}
	if !strings.Contains(e.Error, "query budget exceeded") {
		t.Fatalf("504 error %q does not state the budget", e.Error)
	}
	if code := postJSON(t, client, ts.URL+"/v1/query/batch", BatchRequest{
		Dataset: "d", Queries: [][]byte{[]byte("block")},
	}, &e); code != http.StatusGatewayTimeout {
		t.Fatalf("over-budget batch got status %d (%s), want 504", code, e.Error)
	}

	st := envStats(t, client, ts.URL)
	if st.Deadline504 != 2 {
		t.Fatalf("deadline_504 = %d, want 2", st.Deadline504)
	}
	if st.QueryBudgetMs != 40 {
		t.Fatalf("query_budget_ms = %d, want 40", st.QueryBudgetMs)
	}
	var hz struct {
		Status string            `json:"status"`
		Health map[string]string `json:"health"`
	}
	if code := getJSON(t, client, ts.URL+"/healthz", &hz); code != http.StatusOK || hz.Health["d"] != "degraded" {
		t.Fatalf("healthz after two 504s = status %d %+v, want 200 with dataset d degraded", code, hz)
	}

	// In-budget queries still serve: the deadline abandoned the stalled
	// workers, it did not poison the dataset.
	var qr QueryResponse
	if code := postJSON(t, client, ts.URL+"/v1/query", QueryRequest{
		Dataset: "d", Query: []byte("go"),
	}, &qr); code != http.StatusOK || !qr.Answer {
		t.Fatalf("in-budget query = status %d answer %v, want 200 true", code, qr.Answer)
	}

	// A third 504 opens the breaker: the next stalling query is refused
	// fast, before it reaches the dataset, instead of paying the stall.
	stall := QueryRequest{Dataset: "d", Query: []byte("block")}
	if code := postJSON(t, client, ts.URL+"/v1/query", stall, &e); code != http.StatusGatewayTimeout {
		t.Fatalf("third over-budget query got status %d (%s), want 504", code, e.Error)
	}
	resp, err := client.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"dataset":"d","query":"YmxvY2s="}`)) // "block"
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("query after three 504s got status %d, Retry-After %q; want a 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if n := len(entered); n != 3 {
		t.Fatalf("%d queries entered the answerer, want 3: the open breaker let the refused one through", n)
	}
	if st := envStats(t, client, ts.URL); st.Deadline504 != 3 || st.Breaker503 != 1 {
		t.Fatalf("deadline_504 = %d, breaker_503 = %d; want 3, 1", st.Deadline504, st.Breaker503)
	}
	if code := getJSON(t, client, ts.URL+"/healthz", &hz); code != http.StatusServiceUnavailable || hz.Health["d"] != "open" {
		t.Fatalf("healthz after three 504s = status %d %+v, want 503 with dataset d open", code, hz)
	}

	// Release the stall (draining the abandoned workers) and wait out the
	// backoff: the query that used to overrun is the half-open probe.
	close(gate)
	for i := 0; i < 3; i++ {
		<-entered
	}
	time.Sleep(100 * time.Millisecond)
	if code := postJSON(t, client, ts.URL+"/v1/query", stall, &qr); code != http.StatusOK || !qr.Answer {
		t.Fatalf("probe after the stall cleared = status %d answer %v, want 200 true", code, qr.Answer)
	}
	if code := getJSON(t, client, ts.URL+"/healthz", &hz); code != http.StatusOK || hz.Health["d"] != "healthy" {
		t.Fatalf("healthz after the probe = status %d %+v, want 200 and healthy", code, hz)
	}
}
