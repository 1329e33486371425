package server

// The rejection-taxonomy suite for the serving envelope: 413 for
// oversized bodies and batches (naming the limit), 429 + Retry-After
// under saturated concurrency (global and per-dataset), 503 for budget
// exhaustion with no catalog side effects, and the envelope stats block
// that accounts for every one of them. Plus the answer-path memoization
// pin: a cache-fronted view is built once per dataset, not per request.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pitract/internal/cache"
	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// envStats fetches the /v1/stats envelope block.
func envStats(t *testing.T, client *http.Client, base string) EnvelopeStats {
	t.Helper()
	var resp StatsResponse
	if code := getJSON(t, client, base+"/v1/stats", &resp); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	return resp.Envelope
}

// TestEnvelopeOversizedBodies pins the 413 taxonomy: a body over the
// configured byte cap is refused on every decode path — register, query,
// and PATCH — with the limit named in the error, no catalog side
// effects, and the rejection counted.
func TestEnvelopeOversizedBodies(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	const bodyCap = 1 << 10
	srv.SetLimits(Limits{MaxBodyBytes: bodyCap})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	big := make([]byte, 2*bodyCap)
	for _, tc := range []struct {
		name   string
		method string
		url    string
		body   interface{}
	}{
		{"register", http.MethodPost, "/v1/datasets", RegisterRequest{ID: "big", Scheme: "point-selection/sorted-keys", Data: big}},
		{"query", http.MethodPost, "/v1/query", QueryRequest{Dataset: "big", Query: big}},
		{"patch", http.MethodPatch, "/v1/datasets/big", PatchRequest{Deltas: [][]byte{big}}},
	} {
		payload, err := json.Marshal(tc.body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(tc.method, ts.URL+tc.url, bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body got status %d (%s), want 413", tc.name, resp.StatusCode, e.Error)
		}
		if !strings.Contains(e.Error, fmt.Sprintf("%d-byte limit", bodyCap)) {
			t.Fatalf("%s: 413 error %q does not name the %d-byte limit", tc.name, e.Error, bodyCap)
		}
	}
	if n := srv.reg.Len(); n != 0 {
		t.Fatalf("oversized registration left %d catalog entries", n)
	}
	if st := envStats(t, client, ts.URL); st.RejectedBody413 != 3 {
		t.Fatalf("rejected_body_413 = %d, want 3", st.RejectedBody413)
	}

	// A body under the cap still registers — the limit refuses size, not
	// registration.
	var info DatasetInfo
	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "small", Scheme: "point-selection/sorted-keys", Data: schemes.RelationFromKeys([]int64{2, 4}),
	}, &info); code != http.StatusOK {
		t.Fatalf("small registration under the cap got status %d", code)
	}
}

// TestEnvelopeDeclaredLength pins how readBody uses a body's declared
// Content-Length. Over the byte cap it is still today's 413 naming the
// limit, and the buffer is not grown to the declared length — a client can
// declare what it likes. Within the cap the buffer is grown once, to the
// declared length and no more than the one read's slack past it; a
// registration-sized buffer, over maxPooledBody, is left to the collector
// rather than put back in bodyPool.
func TestEnvelopeDeclaredLength(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	const bodyCap = 1 << 10
	srv.SetLimits(Limits{MaxBodyBytes: bodyCap})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	payload, err := json.Marshal(RegisterRequest{ID: "big", Scheme: "point-selection/sorted-keys", Data: make([]byte, 2*bodyCap)})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/datasets", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if req.ContentLength <= bodyCap {
		t.Fatalf("the request declares %d bytes, want more than the %d-byte cap", req.ContentLength, bodyCap)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(e.Error, fmt.Sprintf("%d-byte limit", bodyCap)) {
		t.Fatalf("a declared length over the cap: status %d (%q), want 413 naming the %d-byte limit", resp.StatusCode, e.Error, bodyCap)
	}

	// A declared length far over the cap, on a body of 2 KiB: the read
	// stops at the cap, and the buffer never held room for the declaration.
	r := httptest.NewRequest(http.MethodPost, "/v1/datasets", bytes.NewReader(make([]byte, 2*bodyCap)))
	r.ContentLength = 64 << 20
	buf, err := srv.readBody(httptest.NewRecorder(), r)
	if err == nil {
		t.Fatal("a body over the cap read without error")
	}
	if buf.Cap() >= 1<<20 {
		t.Fatalf("a declared length of %d over a %d-byte cap grew the buffer to %d bytes", r.ContentLength, bodyCap, buf.Cap())
	}
	putBody(buf)

	// Within the cap: one buffer of the declared length (plus ReadFrom's
	// MinRead of slack, rounded to a size class), read without a doubling.
	big := New(store.NewRegistry(""), nil)
	const size = 3 * maxPooledBody / 2
	r = httptest.NewRequest(http.MethodPost, "/v1/datasets", bytes.NewReader(make([]byte, size)))
	buf, err = big.readBody(httptest.NewRecorder(), r)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != size || buf.Cap() > size+size/16 {
		t.Fatalf("a %d-byte body read into %d bytes of a %d-byte buffer, want one buffer of about the declared length", size, buf.Len(), buf.Cap())
	}
	putBody(buf)
	for range 4 {
		if got := bodyPool.Get().(*bytes.Buffer); got == buf {
			t.Fatalf("a %d-byte buffer, over maxPooledBody (%d), went back into bodyPool", buf.Cap(), maxPooledBody)
		}
	}
}

// TestEnvelopeBatchCap pins the batch-size bound: a batch over
// MaxBatchQueries is a 413 naming both sizes, one at the limit passes,
// and the rejection is counted separately from body-size 413s.
func TestEnvelopeBatchCap(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	srv.SetLimits(Limits{MaxBatchQueries: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "d", Scheme: "point-selection/sorted-keys", Data: schemes.RelationFromKeys([]int64{2, 4, 6}),
	}, nil); code != http.StatusOK {
		t.Fatalf("register status %d", code)
	}

	mkBatch := func(n int) BatchRequest {
		qs := make([][]byte, n)
		for i := range qs {
			qs[i] = schemes.PointQuery(int64(2 * i))
		}
		return BatchRequest{Dataset: "d", Queries: qs}
	}

	var e errorResponse
	if code := postJSON(t, client, ts.URL+"/v1/query/batch", mkBatch(5), &e); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch got status %d, want 413", code)
	}
	if !strings.Contains(e.Error, "batch of 5 queries exceeds the 4-query limit") {
		t.Fatalf("413 error %q does not name the batch sizes", e.Error)
	}
	var ok BatchResponse
	if code := postJSON(t, client, ts.URL+"/v1/query/batch", mkBatch(4), &ok); code != http.StatusOK {
		t.Fatalf("at-limit batch got status %d, want 200", code)
	}
	if len(ok.Answers) != 4 {
		t.Fatalf("at-limit batch answered %d queries, want 4", len(ok.Answers))
	}
	st := envStats(t, client, ts.URL)
	if st.RejectedBatch413 != 1 || st.RejectedBody413 != 0 {
		t.Fatalf("rejected_batch_413 = %d, rejected_body_413 = %d, want 1 and 0",
			st.RejectedBatch413, st.RejectedBody413)
	}
}

// blockingCatalog returns a catalog with one scheme whose Answer parks on
// gate for queries equal to "block" (other queries answer immediately),
// so tests can hold handler slots open deterministically.
func blockingCatalog(gate <-chan struct{}, entered chan<- struct{}) map[string]*core.Scheme {
	return map[string]*core.Scheme{
		"test/blocking": {
			SchemeName: "test/blocking",
			Preprocess: func(d []byte) ([]byte, error) { return d, nil },
			Prepare: core.ProbeInPlace(func(pd, q []byte) (bool, error) {
				if string(q) == "block" {
					entered <- struct{}{}
					<-gate
				}
				return true, nil
			}),
		},
	}
}

// TestEnvelopeGlobalBackpressure pins the 429 path: with MaxInFlight
// saturated by parked requests, the next request is refused immediately
// with Retry-After advertising the configured delay, and the parked
// requests still complete once unblocked.
func TestEnvelopeGlobalBackpressure(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	srv := New(store.NewRegistry(""), blockingCatalog(gate, entered))
	srv.SetLimits(Limits{MaxInFlight: 2, RetryAfter: 3 * time.Second})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "d", Scheme: "test/blocking", Data: []byte{1},
	}, nil); code != http.StatusOK {
		t.Fatalf("register status %d", code)
	}

	// Park two queries inside the handlers — the envelope is now full.
	var wg sync.WaitGroup
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var qr QueryResponse
			codes <- postJSON(t, client, ts.URL+"/v1/query",
				QueryRequest{Dataset: "d", Query: []byte("block")}, &qr)
		}()
	}
	<-entered
	<-entered

	// The third request must be refused, not queued.
	body, _ := json.Marshal(QueryRequest{Dataset: "d", Query: []byte("go")})
	resp, err := client.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request got status %d (%s), want 429", resp.StatusCode, e.Error)
	}
	// The advertised delay is the configured 3s jittered ±20% and rounded
	// to whole seconds (jitterSeconds): 2, 3 or 4.
	if got := resp.Header.Get("Retry-After"); got != "2" && got != "3" && got != "4" {
		close(gate) // release the parked handlers, or ts.Close never returns
		t.Fatalf("Retry-After = %q, want the configured 3s within its ±20%% jitter", got)
	}
	if !strings.Contains(e.Error, "server at capacity (2 in flight)") {
		t.Fatalf("429 error %q does not state the capacity", e.Error)
	}

	// Stats stay reachable under saturation and see the full envelope.
	st := envStats(t, client, ts.URL)
	if st.InFlight != 2 || st.Rejected429 != 1 || st.MaxInFlight != 2 {
		t.Fatalf("under saturation: in_flight=%d rejected_429=%d max_in_flight=%d, want 2, 1, 2",
			st.InFlight, st.Rejected429, st.MaxInFlight)
	}

	close(gate)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("parked query finished with status %d, want 200", code)
		}
	}
	if st := envStats(t, client, ts.URL); st.InFlight != 0 {
		t.Fatalf("in_flight = %d after drain, want 0", st.InFlight)
	}
}

// TestEnvelopePerDatasetBackpressure pins slot isolation: one dataset at
// its per-dataset cap is refused with a 429 naming that dataset while a
// second dataset keeps answering — a hot dataset cannot starve the
// catalog.
func TestEnvelopePerDatasetBackpressure(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	srv := New(store.NewRegistry(""), blockingCatalog(gate, entered))
	srv.SetLimits(Limits{MaxInFlightPerDataset: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	for _, id := range []string{"hot", "cold"} {
		if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
			ID: id, Scheme: "test/blocking", Data: []byte{1},
		}, nil); code != http.StatusOK {
			t.Fatalf("register %s status %d", id, code)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, client, ts.URL+"/v1/query",
			QueryRequest{Dataset: "hot", Query: []byte("block")}, nil)
	}()
	<-entered

	body, _ := json.Marshal(QueryRequest{Dataset: "hot", Query: []byte("go")})
	resp, err := client.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("hot dataset at capacity got status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("per-dataset 429 missing Retry-After")
	}
	if !strings.Contains(e.Error, `dataset "hot" at capacity (1 in flight)`) {
		t.Fatalf("429 error %q does not name the saturated dataset", e.Error)
	}

	// The other dataset is untouched by hot's saturation.
	var qr QueryResponse
	if code := postJSON(t, client, ts.URL+"/v1/query",
		QueryRequest{Dataset: "cold", Query: []byte("go")}, &qr); code != http.StatusOK {
		t.Fatalf("cold dataset starved: status %d, want 200", code)
	}

	close(gate)
	wg.Wait()
}

// TestEnvelopeRegisterBudget pins the 503 path end to end: a
// registration that outruns RegisterBudget returns 503 with the budget
// error, is counted, and leaves no catalog entry once the abandoned
// build drains — the id then registers cleanly.
func TestEnvelopeRegisterBudget(t *testing.T) {
	gate := make(chan struct{})
	catalog := map[string]*core.Scheme{
		"test/slow": {
			SchemeName: "test/slow",
			Preprocess: func(d []byte) ([]byte, error) {
				<-gate
				return d, nil
			},
			Prepare: core.ProbeInPlace(func(pd, q []byte) (bool, error) { return true, nil }),
		},
	}
	srv := New(store.NewRegistry(""), catalog)
	srv.SetLimits(Limits{RegisterBudget: 30 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	var e errorResponse
	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "d", Scheme: "test/slow", Data: []byte{1},
	}, &e); code != http.StatusServiceUnavailable {
		t.Fatalf("over-budget registration got status %d (%s), want 503", code, e.Error)
	}
	if !strings.Contains(e.Error, "request budget exceeded") {
		t.Fatalf("503 error %q does not state the budget", e.Error)
	}
	if st := envStats(t, client, ts.URL); st.BudgetExceeded != 1 {
		t.Fatalf("budget_exceeded = %d, want 1", st.BudgetExceeded)
	}

	// Drain the abandoned build; no catalog entry may remain.
	close(gate)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := srv.reg.GetDataset("d"); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("over-budget registration left a catalog entry")
		}
		time.Sleep(time.Millisecond)
	}
	if code := getJSON(t, client, ts.URL+"/v1/datasets/d", nil); code != http.StatusNotFound {
		t.Fatalf("GET after abandoned registration got status %d, want 404", code)
	}

	// The id is free for a properly-budgeted retry.
	var info DatasetInfo
	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "d", Scheme: "test/slow", Data: []byte{1},
	}, &info); code != http.StatusOK {
		t.Fatalf("retry registration got status %d, want 200", code)
	}
}

// TestEnvelopePatchBudget pins maintenance budgets over HTTP: with an
// exhausted budget the PATCH is a 503 and nothing is applied — version
// unchanged, refused delta invisible.
func TestEnvelopePatchBudget(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "d", Scheme: "point-selection/sorted-keys", Data: schemes.RelationFromKeys([]int64{2, 4}),
	}, nil); code != http.StatusOK {
		t.Fatalf("register status %d", code)
	}
	// A degenerate budget is already exhausted when the PATCH starts.
	srv.SetLimits(Limits{RegisterBudget: time.Nanosecond})

	var e errorResponse
	if code := patchJSON(t, client, ts.URL+"/v1/datasets/d",
		[][]byte{schemes.KeysDelta([]int64{9})}, &e); code != http.StatusServiceUnavailable {
		t.Fatalf("over-budget PATCH got status %d (%s), want 503", code, e.Error)
	}
	if st := envStats(t, client, ts.URL); st.BudgetExceeded != 1 {
		t.Fatalf("budget_exceeded = %d, want 1", st.BudgetExceeded)
	}

	var info DatasetInfo
	if code := getJSON(t, client, ts.URL+"/v1/datasets/d", &info); code != http.StatusOK || info.Version != 0 {
		t.Fatalf("after refused PATCH: status %d version %d, want 200 and 0", code, info.Version)
	}
	var qr QueryResponse
	if code := postJSON(t, client, ts.URL+"/v1/query", QueryRequest{
		Dataset: "d", Query: schemes.PointQuery(9),
	}, &qr); code != http.StatusOK || qr.Answer {
		t.Fatalf("refused delta visible: status %d answer %v", code, qr.Answer)
	}
}

// TestAnswerPathMemoized pins the hot-path fix: with a cache configured,
// the cache-fronted view of a traversal dataset is built once and reused
// across requests, and swapping the cache rebuilds it.
func TestAnswerPathMemoized(t *testing.T) {
	reg := store.NewRegistry("")
	srv := New(reg, nil)
	if _, err := reg.Register("d", schemes.ReachabilityBFSScheme(), graph.Path(4, true).Encode()); err != nil {
		t.Fatal(err)
	}
	ds, _ := reg.GetDataset("d")

	// No cache: the dataset itself, no wrapper.
	if got := srv.answerPath(ds); got != ds {
		t.Fatal("answerPath without a cache must return the dataset itself")
	}

	srv.SetAnswerCache(cache.New(1 << 20))
	v1 := srv.answerPath(ds)
	v2 := srv.answerPath(ds)
	if v1 == ds {
		t.Fatal("answerPath with a cache must return the fronted view")
	}
	if v1 != v2 {
		t.Fatal("answerPath rebuilt the cached view on a second request")
	}

	// Swapping the cache must drop the memoized view (it wraps the old
	// cache).
	srv.SetAnswerCache(cache.New(1 << 20))
	if v3 := srv.answerPath(ds); v3 == v1 {
		t.Fatal("answerPath kept a view wrapping the replaced cache")
	}

	// Disabling the cache returns the raw dataset again.
	srv.SetAnswerCache(nil)
	if got := srv.answerPath(ds); got != ds {
		t.Fatal("answerPath after disabling the cache must return the dataset itself")
	}
}
