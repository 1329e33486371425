package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/shard"
	"pitract/internal/store"
)

// postJSON posts v and decodes the response into out, returning the status.
func postJSON(t *testing.T, client *http.Client, url string, v, out interface{}) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, client *http.Client, url string, out interface{}) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// countingCatalog wraps every scheme in cat so Preprocess invocations are
// counted per scheme name.
func countingCatalog(cat map[string]*core.Scheme, counts map[string]*int64) map[string]*core.Scheme {
	out := map[string]*core.Scheme{}
	for name, s := range cat {
		var n int64
		counts[name] = &n
		wrapped := *s
		inner := s.Preprocess
		ctr := &n
		wrapped.Preprocess = func(d []byte) ([]byte, error) {
			atomic.AddInt64(ctr, 1)
			return inner(d)
		}
		out[name] = &wrapped
	}
	return out
}

// testWorkload is one dataset: its registration request plus query pairs
// with the expected verdict from a direct Scheme.Answer call.
type testWorkload struct {
	id      string
	scheme  string
	data    []byte
	queries [][]byte
	want    []bool
}

// buildWorkloads assembles three datasets over three different schemes and
// computes every expected verdict directly (Preprocess + Answer, no
// server).
func buildWorkloads(t *testing.T) []testWorkload {
	t.Helper()
	rng := rand.New(rand.NewSource(99))

	keys := make([]int64, 200)
	for i := range keys {
		keys[i] = int64(rng.Intn(500))
	}
	point := testWorkload{id: "keys", scheme: "point-selection/sorted-keys",
		data: schemes.RelationFromKeys(keys)}
	for i := 0; i < 40; i++ {
		point.queries = append(point.queries, schemes.PointQuery(int64(rng.Intn(600))))
	}

	g := graph.RandomDirected(96, 400, 17)
	reach := testWorkload{id: "graph", scheme: "reachability/closure-matrix", data: g.Encode()}
	for i := 0; i < 40; i++ {
		reach.queries = append(reach.queries, schemes.NodePairQuery(rng.Intn(96), rng.Intn(96)))
	}

	list := make([]int64, 150)
	for i := range list {
		list[i] = int64(rng.Intn(400))
	}
	member := testWorkload{id: "list", scheme: "list-membership/sorted",
		data: schemes.EncodeList(list)}
	for i := 0; i < 40; i++ {
		member.queries = append(member.queries, schemes.PointQuery(int64(rng.Intn(500))))
	}

	ws := []testWorkload{point, reach, member}
	cat := Catalog()
	for wi := range ws {
		w := &ws[wi]
		scheme := cat[w.scheme]
		pd, err := scheme.Preprocess(w.data)
		if err != nil {
			t.Fatalf("%s: direct preprocess: %v", w.id, err)
		}
		for _, q := range w.queries {
			got, err := scheme.Answer(pd, q)
			if err != nil {
				t.Fatalf("%s: direct answer: %v", w.id, err)
			}
			w.want = append(w.want, got)
		}
	}
	return ws
}

// TestServerConcurrentRoundTrip is the acceptance suite: three datasets
// over three schemes, ≥1000 concurrent mixed single/batch queries through
// an httptest server, every verdict identical to the direct Scheme.Answer
// result, and exactly one Preprocess per dataset across the whole run —
// including racing re-registrations.
func TestServerConcurrentRoundTrip(t *testing.T) {
	counts := map[string]*int64{}
	catalog := countingCatalog(Catalog(), counts)
	srv := New(store.NewRegistry(""), catalog)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: 64}

	workloads := buildWorkloads(t)
	for _, w := range workloads {
		var info DatasetInfo
		if code := postJSON(t, client, ts.URL+"/v1/datasets",
			RegisterRequest{ID: w.id, Scheme: w.scheme, Data: w.data}, &info); code != http.StatusOK {
			t.Fatalf("register %s: status %d", w.id, code)
		}
		if info.ID != w.id || info.Scheme != w.scheme || info.PrepBytes == 0 {
			t.Fatalf("register %s: bad info %+v", w.id, info)
		}
	}

	const (
		workers         = 25
		roundsPerWorker = 8 // each round: 3 single + 1 batch per workload
	)
	var queriesServed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for wk := 0; wk < workers; wk++ {
		go func(wk int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wk)))
			for round := 0; round < roundsPerWorker; round++ {
				for _, w := range workloads {
					// A few random single queries…
					for j := 0; j < 3; j++ {
						i := rng.Intn(len(w.queries))
						var qr QueryResponse
						if code := postJSON(t, client, ts.URL+"/v1/query",
							QueryRequest{Dataset: w.id, Query: w.queries[i]}, &qr); code != http.StatusOK {
							t.Errorf("%s query %d: status %d", w.id, i, code)
							return
						}
						if qr.Answer != w.want[i] {
							t.Errorf("%s query %d: served %v, direct Answer %v", w.id, i, qr.Answer, w.want[i])
							return
						}
						queriesServed.Add(1)
					}
					// …and the full batch through the worker pool.
					var br BatchResponse
					if code := postJSON(t, client, ts.URL+"/v1/query/batch",
						BatchRequest{Dataset: w.id, Queries: w.queries, Parallelism: 4}, &br); code != http.StatusOK {
						t.Errorf("%s batch: status %d", w.id, code)
						return
					}
					if len(br.Answers) != len(w.want) {
						t.Errorf("%s batch: %d answers, want %d", w.id, len(br.Answers), len(w.want))
						return
					}
					for i := range br.Answers {
						if br.Answers[i] != w.want[i] {
							t.Errorf("%s batch query %d: served %v, direct Answer %v",
								w.id, i, br.Answers[i], w.want[i])
							return
						}
					}
					queriesServed.Add(int64(len(w.queries)))
					// Occasionally re-register mid-flight: must hit the memo,
					// never a second Preprocess.
					if round%4 == 3 {
						var info DatasetInfo
						if code := postJSON(t, client, ts.URL+"/v1/datasets",
							RegisterRequest{ID: w.id, Scheme: w.scheme, Data: w.data}, &info); code != http.StatusOK {
							t.Errorf("%s re-register: status %d", w.id, code)
							return
						}
					}
				}
			}
		}(wk)
	}
	wg.Wait()

	if n := queriesServed.Load(); n < 1000 {
		t.Fatalf("served %d queries, want >= 1000", n)
	}
	for _, w := range workloads {
		if n := atomic.LoadInt64(counts[w.scheme]); n != 1 {
			t.Errorf("scheme %s: Preprocess ran %d times, want exactly 1", w.scheme, n)
		}
	}

	var stats StatsResponse
	if code := getJSON(t, client, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.Datasets != len(workloads) || stats.PreprocessCalls != int64(len(workloads)) {
		t.Errorf("stats: %+v, want %d datasets each preprocessed once", stats, len(workloads))
	}
	if stats.Queries != queriesServed.Load() {
		t.Errorf("stats counted %d queries, served %d", stats.Queries, queriesServed.Load())
	}
	for _, w := range workloads {
		ss, ok := stats.PerScheme[w.scheme]
		if !ok || ss.Queries == 0 || ss.LatencyNs == 0 || ss.Errors != 0 {
			t.Errorf("stats for %s missing or empty: %+v", w.scheme, ss)
		}
	}

	var list struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	if code := getJSON(t, client, ts.URL+"/v1/datasets", &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list.Datasets) != len(workloads) {
		t.Fatalf("listed %d datasets, want %d", len(list.Datasets), len(workloads))
	}
}

func TestServerErrorPaths(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	var e struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, client, ts.URL+"/v1/datasets",
		RegisterRequest{ID: "x", Scheme: "no-such-scheme"}, &e); code != http.StatusBadRequest {
		t.Errorf("unknown scheme: status %d, want 400", code)
	}
	if e.Error == "" || !strings.Contains(e.Error, "no-such-scheme") {
		t.Errorf("unknown scheme: unhelpful error %q", e.Error)
	}
	if code := postJSON(t, client, ts.URL+"/v1/query",
		QueryRequest{Dataset: "missing"}, &e); code != http.StatusNotFound {
		t.Errorf("missing dataset: status %d, want 404", code)
	}
	if code := postJSON(t, client, ts.URL+"/v1/datasets",
		RegisterRequest{Scheme: "point-selection/sorted-keys"}, &e); code != http.StatusBadRequest {
		t.Errorf("missing id: status %d, want 400", code)
	}
	resp, err := client.Post(ts.URL+"/v1/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
	if code := getJSON(t, client, ts.URL+"/v1/query", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET on query: status %d, want 405", code)
	}

	// A registered dataset with a malformed query must 422, not crash, and
	// the error must be counted.
	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "keys", Scheme: "point-selection/sorted-keys",
		Data: schemes.RelationFromKeys([]int64{1, 2, 3}),
	}, nil); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}
	if code := postJSON(t, client, ts.URL+"/v1/query",
		QueryRequest{Dataset: "keys", Query: []byte{0xFF, 0xFF}}, &e); code != http.StatusUnprocessableEntity {
		t.Errorf("malformed query: status %d, want 422", code)
	}
	var stats StatsResponse
	getJSON(t, client, ts.URL+"/v1/stats", &stats)
	if stats.PerScheme["point-selection/sorted-keys"].Errors != 1 {
		t.Errorf("query error not counted: %+v", stats.PerScheme)
	}
}

func TestServerHealthz(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var h struct {
		Status   string `json:"status"`
		Datasets int    `json:"datasets"`
	}
	if code := getJSON(t, ts.Client(), ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if h.Status != "ok" || h.Datasets != 0 {
		t.Fatalf("healthz: %+v", h)
	}
}

// TestServerGracefulShutdown runs the real listener path: serve on :0,
// answer a query, shut down, and verify Serve returns nil with the port
// closed.
func TestServerGracefulShutdown(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	client := &http.Client{Timeout: 5 * time.Second}
	if code := postJSON(t, client, base+"/v1/datasets", RegisterRequest{
		ID: "keys", Scheme: "point-selection/sorted-keys",
		Data: schemes.RelationFromKeys([]int64{4}),
	}, nil); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}
	var qr QueryResponse
	if code := postJSON(t, client, base+"/v1/query",
		QueryRequest{Dataset: "keys", Query: schemes.PointQuery(4)}, &qr); code != http.StatusOK || !qr.Answer {
		t.Fatalf("query: status %d answer %v", code, qr.Answer)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if _, err := client.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestServerShardedRegistrationAndServing registers the same dataset
// unsharded and sharded (?shards=2 and ?shards=4), serves an identical
// query mix through /v1/query and /v1/query/batch, and requires every
// sharded verdict byte-identical to the unsharded one — cross-shard
// reachability pairs included.
func TestServerShardedRegistrationAndServing(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	g := graph.CommunityGraph(4, 12, 30, 21)
	rng := rand.New(rand.NewSource(5))
	queries := make([][]byte, 200)
	for i := range queries {
		queries[i] = schemes.NodePairQuery(rng.Intn(g.N()), rng.Intn(g.N()))
	}

	var base DatasetInfo
	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "flat", Scheme: "reachability/closure-matrix", Data: g.Encode(),
	}, &base); code != http.StatusOK {
		t.Fatalf("register flat: status %d", code)
	}
	if base.Shards != 1 {
		t.Fatalf("unsharded registration reports %d shards", base.Shards)
	}
	want := make([]bool, len(queries))
	for i, q := range queries {
		var qr QueryResponse
		if code := postJSON(t, client, ts.URL+"/v1/query",
			QueryRequest{Dataset: "flat", Query: q}, &qr); code != http.StatusOK {
			t.Fatalf("flat query %d: status %d", i, code)
		}
		want[i] = qr.Answer
	}

	for _, n := range []int{2, 4} {
		for _, part := range []string{"hash", "range"} {
			id := fmt.Sprintf("sharded-%d-%s", n, part)
			var info DatasetInfo
			url := fmt.Sprintf("%s/v1/datasets?shards=%d&partitioner=%s", ts.URL, n, part)
			if code := postJSON(t, client, url, RegisterRequest{
				ID: id, Scheme: "reachability/closure-matrix", Data: g.Encode(),
			}, &info); code != http.StatusOK {
				t.Fatalf("register %s: status %d", id, code)
			}
			if info.Shards != n {
				t.Fatalf("%s: info reports %d shards, want %d", id, info.Shards, n)
			}
			if info.PrepBytes == 0 {
				t.Errorf("%s: empty sharded artifact", id)
			}
			for i, q := range queries {
				var qr QueryResponse
				if code := postJSON(t, client, ts.URL+"/v1/query",
					QueryRequest{Dataset: id, Query: q}, &qr); code != http.StatusOK {
					t.Fatalf("%s query %d: status %d", id, i, code)
				}
				if qr.Answer != want[i] {
					t.Fatalf("%s query %d: sharded %v, unsharded %v", id, i, qr.Answer, want[i])
				}
			}
			var br BatchResponse
			if code := postJSON(t, client, ts.URL+"/v1/query/batch", BatchRequest{
				Dataset: id, Queries: queries, Parallelism: 4,
			}, &br); code != http.StatusOK {
				t.Fatalf("%s batch: status %d", id, code)
			}
			for i := range br.Answers {
				if br.Answers[i] != want[i] {
					t.Fatalf("%s batch query %d: sharded %v, unsharded %v", id, i, br.Answers[i], want[i])
				}
			}
		}
	}

	// The dataset listing reports shard counts.
	var list struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	if code := getJSON(t, client, ts.URL+"/v1/datasets", &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	byID := map[string]DatasetInfo{}
	for _, d := range list.Datasets {
		byID[d.ID] = d
	}
	if byID["flat"].Shards != 1 || byID["sharded-4-range"].Shards != 4 {
		t.Fatalf("listing shard counts wrong: %+v", byID)
	}
}

// TestServerShardedParamErrors pins the 400s for bad sharding parameters
// and the 409 for hostile payloads on the sharded path.
func TestServerShardedParamErrors(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	var e struct {
		Error string `json:"error"`
	}
	ok := RegisterRequest{ID: "x", Scheme: "reachability/closure-matrix", Data: graph.Path(4, true).Encode()}
	for _, c := range []struct {
		params string
		want   int
	}{
		{"?shards=0", http.StatusBadRequest},
		{"?shards=-3", http.StatusBadRequest},
		{"?shards=bogus", http.StatusBadRequest},
		{"?shards=100000", http.StatusBadRequest},
		{"?shards=2&partitioner=zodiac", http.StatusBadRequest},
	} {
		if code := postJSON(t, client, ts.URL+"/v1/datasets"+c.params, ok, &e); code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.params, code, c.want, e.Error)
		}
	}
	// A scheme without a sharded form is a client error, not a 409.
	if code := postJSON(t, client, ts.URL+"/v1/datasets?shards=2",
		RegisterRequest{ID: "b", Scheme: "bds/visit-order", Data: graph.Path(4, true).Encode()}, &e); code != http.StatusBadRequest {
		t.Errorf("unshardable scheme: status %d, want 400 (%s)", code, e.Error)
	}
	// Hostile payload through the sharded path: clean 409, process alive.
	if code := postJSON(t, client, ts.URL+"/v1/datasets?shards=2",
		RegisterRequest{ID: "h", Scheme: "reachability/closure-matrix", Data: []byte{0xff, 0xff, 0xff}}, &e); code != http.StatusConflict {
		t.Errorf("hostile sharded payload: status %d, want 409 (%s)", code, e.Error)
	}
	if code := getJSON(t, client, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("server unhealthy after hostile registration: %d", code)
	}
}

// TestSchemeListsInErrorsSortedAndComplete: the two 400s that list scheme
// names — an unknown scheme, a scheme with no sharded form — list every
// name there is, in sorted order, so the same request reads the same on
// every run.
func TestSchemeListsInErrorsSortedAndComplete(t *testing.T) {
	ts := httptest.NewServer(New(store.NewRegistry(""), nil))
	defer ts.Close()

	var all, shardable []string
	for name := range Catalog() {
		all = append(all, name)
		if shard.ForScheme(name) != nil {
			shardable = append(shardable, name)
		}
	}
	for _, c := range []struct {
		params, scheme, marker string
		want                   []string
	}{
		{"", "no/such-scheme", "(have [", all},
		{"?shards=2", "bds/visit-order", "(shardable: [", shardable},
	} {
		var e struct {
			Error string `json:"error"`
		}
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/datasets"+c.params,
			RegisterRequest{ID: "x", Scheme: c.scheme, Data: graph.Path(4, true).Encode()}, &e); code != http.StatusBadRequest {
			t.Fatalf("%s%s: status %d, want 400 (%s)", c.scheme, c.params, code, e.Error)
		}
		_, list, found := strings.Cut(e.Error, c.marker)
		if !found || !strings.HasSuffix(list, "])") {
			t.Fatalf("%s%s: %q lists no names after %q", c.scheme, c.params, e.Error, c.marker)
		}
		got := strings.Fields(strings.TrimSuffix(list, "])"))
		slices.Sort(c.want)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s%s lists\n  %v, want the sorted\n  %v", c.scheme, c.params, got, c.want)
		}
	}
}

// TestServerDefaultSharding: a server started with -shards style defaults
// shards registrations that carry no explicit parameter.
func TestServerDefaultSharding(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	if err := srv.SetDefaultSharding(3, "range"); err != nil {
		t.Fatal(err)
	}
	if err := srv.SetDefaultSharding(2, "zodiac"); err == nil {
		t.Fatal("bad default partitioner must be rejected")
	}
	if err := srv.SetDefaultSharding(maxShards+1, ""); err == nil {
		t.Fatal("default shards beyond the cap must be rejected")
	}
	// A negative count is refused as ?shards=-1 is, not clamped to
	// "unsharded"; the refusal leaves the default set above in place (the
	// registration below still comes back with 3 shards).
	if err := srv.SetDefaultSharding(-1, "hash"); err == nil {
		t.Fatal("negative default shards must be rejected")
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	g := graph.CommunityGraph(3, 8, 12, 2)
	var info DatasetInfo
	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "g", Scheme: "reachability/closure-matrix", Data: g.Encode(),
	}, &info); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}
	if info.Shards != 3 {
		t.Fatalf("default sharding not applied: %d shards, want 3", info.Shards)
	}
	// The server-wide default must not make unshardable schemes
	// unregistrable: BDS falls back to unsharded (explicit ?shards=2 on it
	// stays a 400, covered in TestServerShardedParamErrors).
	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "b", Scheme: "bds/visit-order", Data: graph.Path(6, false).Encode(),
	}, &info); code != http.StatusOK {
		t.Fatalf("unshardable scheme under a -shards default: status %d, want 200", code)
	}
	if info.Shards != 1 {
		t.Fatalf("unshardable scheme registered with %d shards, want the unsharded fallback", info.Shards)
	}
	// An explicit ?shards=1 overrides the default back to unsharded.
	if code := postJSON(t, client, ts.URL+"/v1/datasets?shards=1", RegisterRequest{
		ID: "flat", Scheme: "reachability/closure-matrix", Data: g.Encode(),
	}, &info); code != http.StatusOK {
		t.Fatalf("register flat: status %d", code)
	}
	if info.Shards != 1 {
		t.Fatalf("?shards=1 did not override the default: %d shards", info.Shards)
	}
	got, err := srv.Registry().GetDataset("g")
	if !err || got.ShardCount() != 3 {
		t.Fatalf("registry dataset: %v %v", got, err)
	}
}

// TestOverCapClosureRegistrationRefused: vertices cost a payload no bytes, so
// six bytes (80 80 80 08 01 00) can claim 2²⁴ of them — a 35 TB closure
// matrix, an out-of-memory abort no recover() catches. The registration must
// come back as the 409 every other Preprocess failure gets, naming the limit
// and the scheme that has none, plain and sharded (where a shard is still
// over the limit), and the process must keep serving. The bodies here sit
// just over the limit instead of at 2²⁴: the check is the same comparison,
// and graph.Decode alone spends 0.5 s and 0.5 GB on the six-byte one (the CI
// live-serve smoke posts that one to the shipped binary).
func TestOverCapClosureRegistrationRefused(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	for _, c := range []struct {
		params string
		n      int
	}{
		{"", graph.MaxClosureVertices + 1},
		{"?shards=4", 8 * graph.MaxClosureVertices}, // every shard over the limit
		{"?shards=4&partitioner=range", 4*graph.MaxClosureVertices + 4},
	} {
		hostile := graph.New(c.n, true).Encode() // 5 bytes
		var e struct {
			Error string `json:"error"`
		}
		code := postJSON(t, client, ts.URL+"/v1/datasets"+c.params,
			RegisterRequest{ID: "big", Scheme: "reachability/closure-matrix", Data: hostile}, &e)
		if code != http.StatusConflict {
			t.Fatalf("%q: status %d, want 409 (%s)", c.params, code, e.Error)
		}
		for _, want := range []string{fmt.Sprintf("%d-vertex limit", graph.MaxClosureVertices), "reachability/labels"} {
			if !strings.Contains(e.Error, want) {
				t.Errorf("%q: error %q does not mention %q", c.params, e.Error, want)
			}
		}
		if code := getJSON(t, client, ts.URL+"/v1/datasets/big", nil); code != http.StatusNotFound {
			t.Errorf("%q: refused dataset is listed: status %d", c.params, code)
		}
	}

	// Still serving: a real registration and a query go through.
	if code := postJSON(t, client, ts.URL+"/v1/datasets",
		RegisterRequest{ID: "ok", Scheme: "reachability/closure-matrix", Data: graph.Path(4, true).Encode()}, nil); code != http.StatusOK {
		t.Fatalf("registration after the refusals: status %d", code)
	}
	var qr QueryResponse
	if code := postJSON(t, client, ts.URL+"/v1/query",
		QueryRequest{Dataset: "ok", Query: schemes.NodePairQuery(0, 3)}, &qr); code != http.StatusOK || !qr.Answer {
		t.Fatalf("query after the refusals: status %d, answer %v", code, qr.Answer)
	}
}
