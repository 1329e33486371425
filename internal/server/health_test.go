package server

// The graceful-degradation suite for the HTTP layer: /healthz's
// per-dataset health map, the breaker trip → fast 503 + jittered Retry-After → half-open
// probe heal cycle, exact answers under the query budget while a breaker
// reads degraded, the per-query deadline's 504 taxonomy, and the ±20%
// Retry-After jitter bounds every advisory header obeys.

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pitract/internal/core"
	"pitract/internal/graph"
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
// with an overall status — every dataset healthy, then one tripped open by
// deadline 504s beside datasets that stay healthy.
func TestHealthzHealthMap(t *testing.T) {
	catalog := Catalog()
	for name, sch := range newSlowAnswerer(100 * time.Millisecond).catalog() {
		catalog[name] = sch
	}
	srv := New(store.NewRegistry(""), catalog)
	srv.reg.SetBreakerConfig(store.BreakerConfig{
		Window: time.Minute, DegradedAfter: 1, OpenAfter: 2, Backoff: time.Minute,
	})
	srv.SetLimits(Limits{QueryBudget: 20 * time.Millisecond})
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

	// Two answers that outrun the query budget trip one dataset open: the
	// node reads unhealthy and the map names that dataset alone.
	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "s", Scheme: "test/slow", Data: []byte{1},
	}, nil); code != http.StatusOK {
		t.Fatalf("register s status %d", code)
	}
	for i := 0; i < 2; i++ {
		if code := postJSON(t, client, ts.URL+"/v1/query", QueryRequest{Dataset: "s", Query: []byte("block")}, nil); code != http.StatusGatewayTimeout {
			t.Fatalf("stalled query %d got status %d, want 504", i, code)
		}
	}
	got.Health = nil
	if code := getJSON(t, client, ts.URL+"/healthz", &got); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with an open breaker got status %d, want 503", code)
	}
	if got.Status != "unhealthy" || got.Datasets != 3+more || got.Health["s"] != "open" || got.Health["m"] != "healthy" {
		t.Fatalf("healthz = %+v, want unhealthy over %d datasets with s open and m healthy", got, 3+more)
	}
}

// slowAnswerer backs the scheme test/slow, whose probe of the query
// "block" sleeps for stall until fast is set: an answerer that outruns a
// query budget by a bounded time, so every request it serves ends. Every
// other query answers at once. Verdict: true. blocked counts the probes of
// "block".
type slowAnswerer struct {
	stall   time.Duration
	fast    atomic.Bool
	blocked atomic.Int64
}

func newSlowAnswerer(stall time.Duration) *slowAnswerer { return &slowAnswerer{stall: stall} }

func (a *slowAnswerer) catalog() map[string]*core.Scheme {
	sch := &core.Scheme{
		SchemeName: "test/slow",
		Preprocess: func(d []byte) ([]byte, error) { return d, nil },
		Prepare: core.ProbeInPlace(func(pd, q []byte) (bool, error) {
			if string(q) == "block" {
				a.blocked.Add(1)
				if !a.fast.Load() {
					time.Sleep(a.stall)
				}
			}
			return true, nil
		}),
	}
	return map[string]*core.Scheme{sch.SchemeName: sch}
}

// TestBreakerTripsRefusesAndHeals walks the full breaker cycle over
// HTTP: repeated 504s (an answerer slower than the query budget) trip
// the dataset open, an open breaker refuses fast with 503 + Retry-After
// and turns /healthz unhealthy, and — once the answerer is fast again —
// the first admitted request past the backoff probes the exact path and
// closes the breaker without any re-registration.
func TestBreakerTripsRefusesAndHeals(t *testing.T) {
	slow := newSlowAnswerer(100 * time.Millisecond)
	srv := New(store.NewRegistry(""), slow.catalog())
	srv.reg.SetBreakerConfig(store.BreakerConfig{
		Window: time.Second, DegradedAfter: 2, OpenAfter: 3,
		Backoff: 200 * time.Millisecond, MaxBackoff: 800 * time.Millisecond,
	})
	srv.SetLimits(Limits{QueryBudget: 20 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "d", Scheme: "test/slow", Data: []byte{1},
	}, nil); code != http.StatusOK {
		t.Fatalf("register status %d", code)
	}

	// Three server-shaped failures walk healthy → degraded → open. A
	// degraded breaker still admits the query, so each one surfaces the 504.
	for i := 0; i < 3; i++ {
		var e errorResponse
		if code := postJSON(t, client, ts.URL+"/v1/query", QueryRequest{
			Dataset: "d", Query: []byte("block"),
		}, &e); code != http.StatusGatewayTimeout {
			t.Fatalf("query %d over a slow answerer got status %d (%s), want 504", i, code, e.Error)
		}
	}

	// Open: refused fast, Retry-After advertised, /healthz drains the node.
	resp, err := client.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"dataset":"d","query":"YmxvY2s="}`)) // "block"
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
	if st := envStats(t, client, ts.URL); st.Breaker503 != 1 || st.Deadline504 != 3 {
		t.Fatalf("breaker_503 = %d, deadline_504 = %d; want 1, 3", st.Breaker503, st.Deadline504)
	}

	// Make the answerer fast and wait out the backoff: the next request is
	// the half-open probe — it answers inside the budget now and closes the
	// breaker.
	slow.fast.Store(true)
	time.Sleep(300 * time.Millisecond)
	var qr QueryResponse
	if code := postJSON(t, client, ts.URL+"/v1/query", QueryRequest{
		Dataset: "d", Query: []byte("block"),
	}, &qr); code != http.StatusOK {
		t.Fatalf("probe after the answerer turned fast got status %d, want 200", code)
	}
	if !qr.Answer {
		t.Fatalf("probe answered %v, want true", qr.Answer)
	}
	if code := getJSON(t, client, ts.URL+"/healthz", &hz); code != http.StatusOK || hz.Health["d"] != "healthy" {
		t.Fatalf("healthz after heal = status %d %+v, want 200 and healthy", code, hz)
	}
}

// degradedServer serves catalog with a breaker that one failure moves to
// degraded and a hundred would open, under limits.
func degradedServer(t *testing.T, catalog map[string]*core.Scheme, limits Limits) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(store.NewRegistry(""), catalog)
	srv.reg.SetBreakerConfig(store.BreakerConfig{Window: time.Minute, DegradedAfter: 1, OpenAfter: 100})
	srv.SetLimits(limits)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// degrade registers id and reports one serve-path failure to its breaker,
// which degradedServer's config turns into the degraded state.
func degrade(t *testing.T, srv *Server, client *http.Client, base string, reg RegisterRequest) {
	t.Helper()
	if code := postJSON(t, client, base+"/v1/datasets", reg, nil); code != http.StatusOK {
		t.Fatalf("register %s status %d", reg.ID, code)
	}
	br := srv.reg.Breaker(reg.ID)
	br.OnFailure(false)
	if st := br.State(); st != store.HealthDegraded {
		t.Fatalf("breaker of %s reads %v, want degraded", reg.ID, st)
	}
}

// TestLabelsOverClosureCapAnswersWhileDegraded: a degraded breaker is a
// warning, not a second answerer. A reachability/labels dataset over the
// closure's class cap (65 537 edgeless vertices: |V| − |E| is over the cap,
// so no closure row is ever allocated) answers a single query and a batch
// with 200 and the labels' exact verdicts while its breaker reads degraded.
func TestLabelsOverClosureCapAnswersWhileDegraded(t *testing.T) {
	srv, ts := degradedServer(t, nil, Limits{})
	client := ts.Client()
	n := graph.MaxClosureVertices + 1
	degrade(t, srv, client, ts.URL, RegisterRequest{
		ID: "big", Scheme: "reachability/labels", Data: graph.New(n, true).Encode(),
	})

	for _, tc := range []struct {
		u, v int
		want bool
	}{{0, n - 1, false}, {7, 7, true}} {
		var got struct {
			Answer bool   `json:"answer"`
			Error  string `json:"error"`
		}
		if code := postJSON(t, client, ts.URL+"/v1/query", QueryRequest{
			Dataset: "big", Query: schemes.NodePairQuery(tc.u, tc.v),
		}, &got); code != http.StatusOK || got.Answer != tc.want {
			t.Fatalf("degraded query (%d,%d) = status %d, answer %v (%s); want 200, %v", tc.u, tc.v, code, got.Answer, got.Error, tc.want)
		}
	}
	var got struct {
		Answers []bool `json:"answers"`
		Error   string `json:"error"`
	}
	if code := postJSON(t, client, ts.URL+"/v1/query/batch", BatchRequest{
		Dataset: "big", Queries: [][]byte{schemes.NodePairQuery(1, 2), schemes.NodePairQuery(n-1, n-1), schemes.NodePairQuery(3, 0)},
	}, &got); code != http.StatusOK || len(got.Answers) != 3 || got.Answers[0] || !got.Answers[1] || got.Answers[2] {
		t.Fatalf("degraded batch = status %d, answers %v (%s); want 200, [false true false]", code, got.Answers, got.Error)
	}
}

// TestDegradedStateKeepsQueryBudget: every admitted ask runs under the
// query budget, so a dataset whose breaker already reads degraded cannot
// answer a request inside -query-budget-ms — a query and a batch whose
// answerer is slower than the budget come back 504 at most one probe late.
func TestDegradedStateKeepsQueryBudget(t *testing.T) {
	srv, ts := degradedServer(t, newSlowAnswerer(100*time.Millisecond).catalog(), Limits{QueryBudget: 20 * time.Millisecond})
	client := &http.Client{Timeout: 5 * time.Second}
	degrade(t, srv, client, ts.URL, RegisterRequest{ID: "d", Scheme: "test/slow", Data: []byte{1}})

	for name, send := range map[string]func(out interface{}) int{
		"query": func(out interface{}) int {
			return postJSON(t, client, ts.URL+"/v1/query", QueryRequest{Dataset: "d", Query: []byte("block")}, out)
		},
		"batch": func(out interface{}) int {
			return postJSON(t, client, ts.URL+"/v1/query/batch", BatchRequest{Dataset: "d", Queries: [][]byte{[]byte("block")}}, out)
		},
	} {
		var e errorResponse
		start := time.Now()
		code := send(&e)
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("degraded %s took %v under a 20ms budget", name, elapsed)
		}
		if code != http.StatusGatewayTimeout || !strings.Contains(e.Error, "query budget exceeded") {
			t.Fatalf("degraded %s got status %d (%s), want a 504 naming the budget", name, code, e.Error)
		}
	}
}

// TestQueryBudget504 pins the per-query deadline taxonomy: a query (and
// a batch) that outruns QueryBudget is answered with a 504 naming the
// budget, counted in the envelope stats, and the dataset keeps serving
// in-budget queries afterwards. A deadline overrun is also a breaker
// failure: two 504s degrade the dataset, a third opens it (fast 503 +
// Retry-After), and once the answerer is fast the half-open probe heals it.
func TestQueryBudget504(t *testing.T) {
	slow := newSlowAnswerer(150 * time.Millisecond)
	srv := New(store.NewRegistry(""), slow.catalog())
	srv.reg.SetBreakerConfig(store.BreakerConfig{
		DegradedAfter: 2, OpenAfter: 3, Backoff: 50 * time.Millisecond,
	})
	srv.SetLimits(Limits{QueryBudget: 40 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "d", Scheme: "test/slow", Data: []byte{1},
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

	// In-budget queries still serve: the deadline failed the slow requests,
	// it did not poison the dataset.
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
	if n := slow.blocked.Load(); n != 3 {
		t.Fatalf("%d queries entered the answerer, want 3: the open breaker let the refused one through", n)
	}
	if st := envStats(t, client, ts.URL); st.Deadline504 != 3 || st.Breaker503 != 1 {
		t.Fatalf("deadline_504 = %d, breaker_503 = %d; want 3, 1", st.Deadline504, st.Breaker503)
	}
	if code := getJSON(t, client, ts.URL+"/healthz", &hz); code != http.StatusServiceUnavailable || hz.Health["d"] != "open" {
		t.Fatalf("healthz after three 504s = status %d %+v, want 503 with dataset d open", code, hz)
	}

	// Make the answerer fast and wait out the backoff: the query that used
	// to overrun is the half-open probe.
	slow.fast.Store(true)
	time.Sleep(100 * time.Millisecond)
	if code := postJSON(t, client, ts.URL+"/v1/query", stall, &qr); code != http.StatusOK || !qr.Answer {
		t.Fatalf("probe after the stall cleared = status %d answer %v, want 200 true", code, qr.Answer)
	}
	if code := getJSON(t, client, ts.URL+"/healthz", &hz); code != http.StatusOK || hz.Health["d"] != "healthy" {
		t.Fatalf("healthz after the probe = status %d %+v, want 200 and healthy", code, hz)
	}
}

// countedProbes backs the scheme test/counted, whose every probe sleeps
// 5ms while it counts the probes running at once (and their peak), and
// whose probe of the query "panic" panics.
type countedProbes struct{ running, peak atomic.Int64 }

func (c *countedProbes) catalog() map[string]*core.Scheme {
	sch := &core.Scheme{
		SchemeName: "test/counted",
		Preprocess: func(d []byte) ([]byte, error) { return d, nil },
		Prepare: core.ProbeInPlace(func(_, q []byte) (bool, error) {
			if string(q) == "panic" {
				panic("planted panic")
			}
			n := c.running.Add(1)
			defer c.running.Add(-1)
			for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
			}
			time.Sleep(5 * time.Millisecond)
			return true, nil
		}),
	}
	return map[string]*core.Scheme{sch.SchemeName: sch}
}

// countedServer serves test/counted as dataset "d" under limits, with
// breaker thresholds no test reaches. net/http's log of a recovered
// handler panic is discarded.
func countedServer(t *testing.T, c *countedProbes, limits Limits) *httptest.Server {
	t.Helper()
	srv := New(store.NewRegistry(""), c.catalog())
	srv.reg.SetBreakerConfig(store.BreakerConfig{Window: time.Minute, DegradedAfter: 1 << 30, OpenAfter: 1 << 30})
	srv.SetLimits(limits)
	ts := httptest.NewUnstartedServer(srv)
	ts.Config.ErrorLog = log.New(io.Discard, "", 0)
	ts.Start()
	t.Cleanup(ts.Close)
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/datasets", RegisterRequest{ID: "d", Scheme: "test/counted"}, nil); code != http.StatusOK {
		t.Fatalf("register status %d", code)
	}
	return ts
}

// TestAnswerWorkStaysWithinAdmission pins that -max-inflight bounds the
// answer work running, not only the requests admitted: an ask runs on the
// request that admitted it, so its 504 is written once its probe has
// returned. Under a 1ms budget and 5ms probes, 16 clients sending single
// queries and batches never have more than MaxInFlight probes running, and
// in a sequential phase no probe is running when a 504 arrives. A single
// query whose probe panics under the budget drops its own connection, and
// the server answers the next query.
func TestAnswerWorkStaysWithinAdmission(t *testing.T) {
	var c countedProbes
	ts := countedServer(t, &c, Limits{MaxInFlight: 2, QueryBudget: time.Millisecond})
	client := ts.Client()
	const (
		single = `{"dataset":"d","query":"cQ=="}` // "q"
		batch  = `{"dataset":"d","queries":["cQ==","cg==","cw=="],"parallelism":1}`
	)
	post := func(path, body string) (int, error) {
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	ask := func(i int) (string, string) {
		if i%2 == 0 {
			return "/v1/query", single
		}
		return "/v1/query/batch", batch
	}

	var (
		wg         sync.WaitGroup
		overBudget atomic.Int64
	)
	for k := 0; k < 16; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				path, body := ask(k + i)
				switch code, err := post(path, body); {
				case err != nil:
					t.Error(err)
					return
				case code == http.StatusGatewayTimeout:
					overBudget.Add(1)
				case code != http.StatusTooManyRequests:
					t.Errorf("%s got status %d, want 504 or 429", path, code)
					return
				}
			}
		}()
	}
	wg.Wait()
	if p := c.peak.Load(); p > 2 {
		t.Fatalf("%d probes ran at once under MaxInFlight 2: a 504 freed its slot while its work still ran", p)
	}
	if overBudget.Load() == 0 {
		t.Fatal("no request was admitted: nothing to observe")
	}

	for i := 0; i < 6; i++ {
		path, body := ask(i)
		code, err := post(path, body)
		if err != nil || code != http.StatusGatewayTimeout {
			t.Fatalf("sequential %s: status %d, err %v; want 504", path, code, err)
		}
		if n := c.running.Load(); n != 0 {
			t.Fatalf("sequential %s: %d probes still running when its 504 arrived", path, n)
		}
	}

	if code, err := post("/v1/query", `{"dataset":"d","query":"cGFuaWM="}`); err == nil { // "panic"
		t.Fatalf("a query whose probe panicked got status %d, want a dropped connection", code)
	}
	if code, err := post("/v1/query", single); err != nil || code != http.StatusGatewayTimeout {
		t.Fatalf("query after a panicked probe: status %d, err %v; want 504", code, err)
	}
}

// TestPanickingBatchProbeFailsTheBatch pins that a probe's panic in a batch
// worker fails that batch, not the process, and is the server's fault, not
// the client's: a parallelism-4 batch whose every probe panics gets a 500
// naming its lowest query, each one is a failure of the dataset's breaker —
// two of them degrade it — and the next batch is answered.
func TestPanickingBatchProbeFailsTheBatch(t *testing.T) {
	var c countedProbes
	srv := New(store.NewRegistry(""), c.catalog())
	srv.reg.SetBreakerConfig(store.BreakerConfig{Window: time.Minute, DegradedAfter: 2, OpenAfter: 1 << 30})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/datasets", RegisterRequest{ID: "d", Scheme: "test/counted"}, nil); code != http.StatusOK {
		t.Fatalf("register status %d", code)
	}
	panics := []byte("panic")
	for i := range 2 {
		var e errorResponse
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/query/batch", BatchRequest{
			Dataset: "d", Queries: [][]byte{panics, panics, panics, panics}, Parallelism: 4,
		}, &e); code != http.StatusInternalServerError || !strings.Contains(e.Error, "batch query 0: panicked: planted panic") {
			t.Fatalf("panicking batch %d got status %d (%s), want 500 naming query 0's panic", i, code, e.Error)
		}
	}
	if st := srv.reg.Breaker("d").State(); st != store.HealthDegraded {
		t.Fatalf("breaker after two panicking batches reads %v, want degraded", st)
	}
	var br BatchResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/query/batch", BatchRequest{
		Dataset: "d", Queries: [][]byte{[]byte("q"), []byte("r")}, Parallelism: 4,
	}, &br); code != http.StatusOK || len(br.Answers) != 2 {
		t.Fatalf("batch after a panicked one got status %d, answers %v; want 200 with 2 answers", code, br.Answers)
	}
}
