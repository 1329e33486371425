package pitract_test

// Documentation verification. docs/ARCHITECTURE.md points into the code,
// README.md quotes commands and docs/API.md quotes wire examples; all three
// claims are cheap to break silently, so these tests pin them: every
// repository path a document references must exist, every quoted
// `pitract run <id>` must name an experiment, and every API example must
// be reproduced character-for-character by a live test server.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"pitract"
	"pitract/internal/harness"
)

// repoPathPattern matches repository-relative code pointers in prose:
// package directories and files under internal/, cmd/, examples/, docs/,
// the root facade, this test file, and any root-level *.md (a path under
// one of the directories is consumed whole by the first alternative, so a
// bare NAME.md is a claim about the repository root).
var repoPathPattern = regexp.MustCompile(`(?:internal|cmd|examples|docs)/[A-Za-z0-9_./-]+[A-Za-z0-9_-]|pitract\.go|docs_test\.go|\b[A-Za-z0-9_]+\.md\b`)

// docFiles are the prose the documentation tests scan: the three documents,
// and the two Go files whose package comments and usage text are read as
// documentation (godoc, `pitract help`).
var docFiles = []string{"docs/ARCHITECTURE.md", "docs/API.md", "README.md", "pitract.go", "cmd/pitract/main.go"}

// TestArchitectureDocPathsExist keeps the documents' code pointers honest:
// every referenced path must exist in the repository.
func TestArchitectureDocPathsExist(t *testing.T) {
	for _, docFile := range docFiles {
		doc, err := os.ReadFile(docFile)
		if err != nil {
			t.Fatalf("%s missing: %v", docFile, err)
		}
		refs := repoPathPattern.FindAllString(string(doc), -1)
		if len(refs) == 0 {
			t.Fatalf("%s references no code paths — the pattern or the doc is broken", docFile)
		}
		seen := map[string]bool{}
		for _, ref := range refs {
			if seen[ref] {
				continue
			}
			seen[ref] = true
			if _, err := os.Stat(ref); err != nil {
				t.Errorf("%s references %q, which does not exist", docFile, ref)
			}
		}
	}
}

// runCommandPattern matches a quoted `pitract run` invocation — flags, then
// ids — and experimentIDPattern the ids inside it ("all" and placeholders
// like <id> are not ids).
var (
	runCommandPattern   = regexp.MustCompile(`pitract run(?: +-[a-z]+(?: +[0-9]+)?)*((?: +[A-Z][0-9]+\b)+)`)
	experimentIDPattern = regexp.MustCompile(`[A-Z][0-9]+`)
)

// TestDocsRunCommandsResolve keeps every quoted `pitract run <id>` runnable:
// each id must resolve through harness.Find, so a document cannot go on
// advertising an experiment that was deleted or never existed.
func TestDocsRunCommandsResolve(t *testing.T) {
	commands := 0
	for _, docFile := range docFiles {
		doc, err := os.ReadFile(docFile)
		if err != nil {
			t.Fatalf("%s missing: %v", docFile, err)
		}
		for _, m := range runCommandPattern.FindAllStringSubmatch(string(doc), -1) {
			commands++
			for _, id := range experimentIDPattern.FindAllString(m[1], -1) {
				if _, ok := harness.Find(id); !ok {
					t.Errorf("%s quotes %q, but there is no experiment %s", docFile, m[0], id)
				}
			}
		}
	}
	if commands == 0 {
		t.Fatal("no `pitract run <id>` found in any document — the pattern or the docs are broken")
	}
}

// apiExample is one request/response pair quoted in docs/API.md.
type apiExample struct {
	name       string
	method     string
	path       string
	reqBody    string // also asserted to appear verbatim in the doc
	wantStatus int
	wantBody   string // exact response body; also asserted in the doc
}

// apiExamples mirrors docs/API.md example for example; changing either
// side without the other fails TestAPIDocMatchesServer.
var apiExamples = []apiExample{
	{
		name:       "register",
		method:     http.MethodPost,
		path:       "/v1/datasets",
		reqBody:    `{"id":"m","scheme":"list-membership/sorted","data":"AwIEBg=="}`,
		wantStatus: http.StatusOK,
		wantBody:   `{"id":"m","scheme":"list-membership/sorted","prep_bytes":24,"loaded":false,"shards":1,"version":0}`,
	},
	{
		name:       "register-sharded",
		method:     http.MethodPost,
		path:       "/v1/datasets?shards=2&partitioner=hash",
		reqBody:    `{"id":"m2","scheme":"list-membership/sorted","data":"AwIEBg=="}`,
		wantStatus: http.StatusOK,
		wantBody:   `{"id":"m2","scheme":"list-membership/sorted","prep_bytes":24,"loaded":false,"shards":2,"version":0}`,
	},
	{
		name:       "register-hostile-409",
		method:     http.MethodPost,
		path:       "/v1/datasets",
		reqBody:    `{"id":"bad","scheme":"reachability/closure-matrix","data":"////"}`,
		wantStatus: http.StatusConflict,
		wantBody:   `{"error":"store: register \"bad\": preprocess (reachability/closure-matrix): graph: corrupt varint at offset 0"}`,
	},
	{
		name:       "register-over-vertex-cap-409",
		method:     http.MethodPost,
		path:       "/v1/datasets",
		reqBody:    `{"id":"big","scheme":"reachability/closure-matrix","data":"gYAEAQA="}`,
		wantStatus: http.StatusConflict,
		wantBody:   `{"error":"store: register \"big\": preprocess (reachability/closure-matrix): schemes: graph: the closure's condensation has at least 65537 classes (strongly connected components), over the 65536-vertex limit on a condensation (its rows take k² bits); register the graph under reachability/labels instead"}`,
	},
	{
		name:       "healthz",
		method:     http.MethodGet,
		path:       "/healthz",
		wantStatus: http.StatusOK,
		wantBody:   `{"datasets":2,"health":{"m":"healthy","m2":"healthy"},"status":"ok"}`,
	},
	{
		name:       "list",
		method:     http.MethodGet,
		path:       "/v1/datasets",
		wantStatus: http.StatusOK,
		wantBody:   `{"datasets":[{"id":"m","scheme":"list-membership/sorted","prep_bytes":24,"loaded":false,"shards":1,"version":0},{"id":"m2","scheme":"list-membership/sorted","prep_bytes":24,"loaded":false,"shards":2,"version":0}]}`,
	},
	{
		name:       "query",
		method:     http.MethodPost,
		path:       "/v1/query",
		reqBody:    `{"dataset":"m","query":"goCAgICAgICAAQ=="}`,
		wantStatus: http.StatusOK,
		wantBody:   `{"answer":true,"version":0}`,
	},
	{
		name:       "query-before-patch",
		method:     http.MethodPost,
		path:       "/v1/query",
		reqBody:    `{"dataset":"m","query":"iYCAgICAgICAAQ=="}`,
		wantStatus: http.StatusOK,
		wantBody:   `{"answer":false,"version":0}`,
	},
	{
		name:       "patch",
		method:     http.MethodPatch,
		path:       "/v1/datasets/m",
		reqBody:    `{"deltas":["ARI="]}`,
		wantStatus: http.StatusOK,
		wantBody:   `{"id":"m","scheme":"list-membership/sorted","prep_bytes":32,"loaded":false,"shards":1,"version":1}`,
	},
	{
		name:       "query-after-patch",
		method:     http.MethodPost,
		path:       "/v1/query",
		reqBody:    `{"dataset":"m","query":"iYCAgICAgICAAQ=="}`,
		wantStatus: http.StatusOK,
		wantBody:   `{"answer":true,"version":1}`,
	},
	{
		name:       "get-dataset",
		method:     http.MethodGet,
		path:       "/v1/datasets/m",
		wantStatus: http.StatusOK,
		wantBody:   `{"id":"m","scheme":"list-membership/sorted","prep_bytes":32,"loaded":false,"shards":1,"version":1}`,
	},
	{
		name:       "patch-delete",
		method:     http.MethodPatch,
		path:       "/v1/datasets/m",
		reqBody:    `{"deltas":["////AAEBEg=="]}`,
		wantStatus: http.StatusOK,
		wantBody:   `{"id":"m","scheme":"list-membership/sorted","prep_bytes":24,"loaded":false,"shards":1,"version":2}`,
	},
	{
		name:       "query-after-delete",
		method:     http.MethodPost,
		path:       "/v1/query",
		reqBody:    `{"dataset":"m","query":"iYCAgICAgICAAQ=="}`,
		wantStatus: http.StatusOK,
		wantBody:   `{"answer":false,"version":2}`,
	},
	{
		name:       "patch-upsert",
		method:     http.MethodPatch,
		path:       "/v1/datasets/m",
		reqBody:    `{"deltas":["////AAIBEg=="]}`,
		wantStatus: http.StatusOK,
		wantBody:   `{"id":"m","scheme":"list-membership/sorted","prep_bytes":32,"loaded":false,"shards":1,"version":3}`,
	},
	{
		name:       "patch-hostile-409",
		method:     http.MethodPatch,
		path:       "/v1/datasets/m",
		reqBody:    `{"deltas":["////"]}`,
		wantStatus: http.StatusConflict,
		wantBody:   `{"error":"store: apply delta to \"m\": store: delta 0: schemes: corrupt list header (nothing applied)"}`,
	},
	{
		name:       "patch-unknown-404",
		method:     http.MethodPatch,
		path:       "/v1/datasets/ghost",
		reqBody:    `{"deltas":["ARI="]}`,
		wantStatus: http.StatusNotFound,
		wantBody:   `{"error":"dataset \"ghost\" not registered"}`,
	},
	{
		name:       "batch",
		method:     http.MethodPost,
		path:       "/v1/query/batch",
		reqBody:    `{"dataset":"m2","queries":["goCAgICAgICAAQ==","iYCAgICAgICAAQ=="],"parallelism":2}`,
		wantStatus: http.StatusOK,
		wantBody:   `{"answers":[true,false],"version":0}`,
	},
	{
		// A scheme that declares a per-query traversal (BFS over the path
		// 0→1→2→3): the answer cache fronts it, and says so.
		name:       "register-traversal",
		method:     http.MethodPost,
		path:       "/v1/datasets",
		reqBody:    `{"id":"g","scheme":"reachability/bfs-per-query","data":"BAEDAAEBAgID"}`,
		wantStatus: http.StatusOK,
		wantBody:   `{"id":"g","scheme":"reachability/bfs-per-query","prep_bytes":9,"loaded":false,"shards":1,"version":0,"cached":true}`,
	},
	{
		name:       "query-traversal",
		method:     http.MethodPost,
		path:       "/v1/query",
		reqBody:    `{"dataset":"g","query":"AAM="}`,
		wantStatus: http.StatusOK,
		wantBody:   `{"answer":true,"version":0}`,
	},
	{
		// The identical query again: served as a ⟨dataset, version, query⟩
		// hit — same bytes on the wire, and the /v1/stats check below sees
		// exactly one cache miss and one cache hit.
		name:       "query-repeat-cached",
		method:     http.MethodPost,
		path:       "/v1/query",
		reqBody:    `{"dataset":"g","query":"AAM="}`,
		wantStatus: http.StatusOK,
		wantBody:   `{"answer":true,"version":0}`,
	},
}

// TestAPIDocMatchesServer replays every docs/API.md example against a
// live httptest server: the documented request bodies must appear in the
// doc verbatim, and the server's responses must match the documented
// bodies and status codes exactly. /v1/stats is verified structurally
// (its counters carry timings).
func TestAPIDocMatchesServer(t *testing.T) {
	docBytes, err := os.ReadFile("docs/API.md")
	if err != nil {
		t.Fatalf("docs/API.md missing: %v", err)
	}
	doc := string(docBytes)

	srv := pitract.NewServer(pitract.NewStoreRegistry(""), nil)
	// The cache is on, as in the documented serve invocation
	// (-cache-bytes), so the stats check covers the cache counters.
	srv.SetAnswerCache(pitract.NewAnswerCache(1 << 20))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	for _, ex := range apiExamples {
		t.Run(ex.name, func(t *testing.T) {
			if ex.reqBody != "" && !strings.Contains(doc, ex.reqBody) {
				t.Errorf("docs/API.md does not contain the documented request body %s", ex.reqBody)
			}
			if !strings.Contains(doc, ex.wantBody) {
				t.Errorf("docs/API.md does not contain the documented response body %s", ex.wantBody)
			}
			req, err := http.NewRequest(ex.method, ts.URL+ex.path, strings.NewReader(ex.reqBody))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			body := strings.TrimSpace(buf.String())
			if resp.StatusCode != ex.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, ex.wantStatus, body)
			}
			if body != ex.wantBody {
				t.Fatalf("live response diverged from docs/API.md:\n got: %s\nwant: %s", body, ex.wantBody)
			}
		})
	}

	// /v1/stats: counters carry latencies, so pin the shape and the
	// deterministic values instead of bytes.
	resp, err := client.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	rawStats, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Datasets        int     `json:"datasets"`
		PreprocessCalls int64   `json:"preprocess_calls"`
		SnapshotLoads   int64   `json:"snapshot_loads"`
		Queries         int64   `json:"queries"`
		DeltasApplied   int64   `json:"deltas_applied"`
		DeltasDeleted   int64   `json:"deltas_deleted"`
		LogReplays      int64   `json:"log_replays"`
		MaintenanceNs   int64   `json:"maintenance_ns"`
		ArtifactBytes   int64   `json:"artifact_bytes"`
		SnapshotBytes   int64   `json:"snapshot_bytes"`
		SnapshotRatio   float64 `json:"snapshot_compression_ratio"`
		PerScheme       map[string]struct {
			Queries   int64 `json:"queries"`
			Errors    int64 `json:"errors"`
			LatencyNs int64 `json:"latency_ns"`
		} `json:"per_scheme"`
		Envelope struct {
			InFlight         int64 `json:"in_flight"`
			MaxInFlight      int   `json:"max_in_flight"`
			MaxBodyBytes     int64 `json:"max_body_bytes"`
			MaxBatchQueries  int   `json:"max_batch_queries"`
			Rejected429      int64 `json:"rejected_429"`
			RejectedBody413  int64 `json:"rejected_body_413"`
			RejectedBatch413 int64 `json:"rejected_batch_413"`
			BudgetExceeded   int64 `json:"budget_exceeded"`
		} `json:"envelope"`
		Cache *struct {
			Hits        int64 `json:"hits"`
			Misses      int64 `json:"misses"`
			Coalesced   int64 `json:"coalesced"`
			Evictions   int64 `json:"evictions"`
			Entries     int64 `json:"entries"`
			Bytes       int64 `json:"bytes"`
			BudgetBytes int64 `json:"budget_bytes"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(rawStats, &stats); err != nil {
		t.Fatalf("stats response does not match the documented shape: %v", err)
	}
	if stats.Datasets != 3 || stats.PreprocessCalls != 4 || stats.Queries != 8 {
		t.Fatalf("stats counters diverge from the documented example: %+v", stats)
	}
	if stats.DeltasApplied != 3 || stats.MaintenanceNs <= 0 {
		t.Fatalf("maintenance counters diverge from the documented example: %+v", stats)
	}
	// The dynamism counters: of the three applied deltas exactly one was a
	// tombstone (patch-delete); this in-memory registry replayed no log.
	if stats.DeltasDeleted != 1 || stats.LogReplays != 0 {
		t.Fatalf("dynamism counters diverge from the documented example: %+v", stats)
	}
	// The artifact-size fields: both registered datasets are resident, so
	// the summed Π bytes and their would-be snapshot bytes are positive, and
	// the ratio is exactly their quotient (sorted-key artifacts ride the
	// delta-varint snapshot section, so the ratio sits below the raw
	// framing overhead would suggest).
	if stats.ArtifactBytes <= 0 || stats.SnapshotBytes <= 0 {
		t.Fatalf("artifact sizes diverge from the documented shape: %+v", stats)
	}
	if want := float64(stats.SnapshotBytes) / float64(stats.ArtifactBytes); stats.SnapshotRatio != want {
		t.Fatalf("snapshot_compression_ratio = %v, want %v", stats.SnapshotRatio, want)
	}
	ss, ok := stats.PerScheme["list-membership/sorted"]
	if !ok || ss.Queries != 6 || ss.Errors != 0 {
		t.Fatalf("per-scheme stats diverge from the documented example: %+v", stats.PerScheme)
	}
	// The cache counters: only "g" is fronted (its scheme declares a
	// per-query traversal), so its first query missed and was filled and its
	// repeat hit; the six list-membership queries never touched the cache.
	if bfs := stats.PerScheme["reachability/bfs-per-query"]; bfs.Queries != 2 || bfs.Errors != 0 {
		t.Fatalf("per-scheme stats diverge from the documented example: %+v", stats.PerScheme)
	}
	if stats.Cache == nil {
		t.Fatalf("stats response carries no cache block with the cache enabled")
	}
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 || stats.Cache.Entries != 1 {
		t.Fatalf("cache counters diverge from the documented example: %+v", *stats.Cache)
	}
	if stats.Cache.BudgetBytes != 1<<20 || stats.Cache.Bytes <= 0 {
		t.Fatalf("cache residency diverges from the documented example: %+v", *stats.Cache)
	}
	// The envelope block: this server runs the default limits and nothing
	// above tripped them, so the documented example's values are exact.
	env := stats.Envelope
	if env.InFlight != 0 || env.MaxInFlight != 0 || env.MaxBodyBytes != 64<<20 || env.MaxBatchQueries != 4096 {
		t.Fatalf("envelope limits diverge from the documented example: %+v", env)
	}
	if env.Rejected429 != 0 || env.RejectedBody413 != 0 || env.RejectedBatch413 != 0 || env.BudgetExceeded != 0 {
		t.Fatalf("envelope rejections diverge from the documented example: %+v", env)
	}

	// The process-identity fields documented next to the counters.
	var identity struct {
		UptimeS float64 `json:"uptime_s"`
		Build   struct {
			GoVersion string `json:"go_version"`
		} `json:"build"`
	}
	if err := json.Unmarshal(rawStats, &identity); err != nil {
		t.Fatal(err)
	}
	if identity.UptimeS <= 0 || identity.Build.GoVersion == "" {
		t.Fatalf("uptime/build diverge from the documented shape: %+v", identity)
	}

	// The request-ID example: a client-supplied X-Request-ID is echoed in
	// the header and repeated in the error body, exactly as documented.
	wantIDBody := `{"error":"dataset \"ghost\" not registered","request_id":"doc-1"}`
	if !strings.Contains(doc, wantIDBody) {
		t.Errorf("docs/API.md does not contain the documented request-ID response body %s", wantIDBody)
	}
	idReq, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/datasets/ghost", strings.NewReader(`{"deltas":["ARI="]}`))
	if err != nil {
		t.Fatal(err)
	}
	idReq.Header.Set("X-Request-ID", "doc-1")
	idResp, err := client.Do(idReq)
	if err != nil {
		t.Fatal(err)
	}
	idBody, _ := io.ReadAll(idResp.Body)
	idResp.Body.Close()
	if idResp.StatusCode != http.StatusNotFound || strings.TrimSpace(string(idBody)) != wantIDBody {
		t.Fatalf("request-ID example diverged from docs/API.md:\n got: %d %s\nwant: 404 %s", idResp.StatusCode, idBody, wantIDBody)
	}
	if got := idResp.Header.Get("X-Request-ID"); got != "doc-1" {
		t.Fatalf("X-Request-ID header %q, want the echoed %q", got, "doc-1")
	}

	// /metrics: the documented content type, conformant exposition, and the
	// documented metric families.
	mResp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, _ := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	if mResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", mResp.StatusCode)
	}
	if ct := mResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET /metrics content type %q diverges from the documented one", ct)
	}
	if err := pitract.CheckExposition(exposition); err != nil {
		t.Fatalf("GET /metrics is not conformant text exposition: %v", err)
	}
	for _, family := range []string{
		"pitract_stage_duration_seconds", "pitract_answer_duration_seconds",
		"pitract_requests_in_flight", "pitract_preprocess_total",
	} {
		if !strings.Contains(doc, family) {
			t.Errorf("docs/API.md does not document the metric family %s", family)
		}
		if !strings.Contains(string(exposition), family) {
			t.Errorf("GET /metrics does not expose the documented family %s", family)
		}
	}

	// Every endpoint the server registers must be documented.
	for _, endpoint := range []string{"/healthz", "/v1/datasets", "/v1/datasets/{id}", "/v1/query", "/v1/query/batch", "/v1/stats", "/metrics"} {
		if !strings.Contains(doc, endpoint) {
			t.Errorf("docs/API.md does not document %s", endpoint)
		}
	}
}

// TestAPIDocEnvelopeExamples replays the Serving-envelope section of
// docs/API.md against a server configured with the section's deliberately
// tiny limits. The catalog wraps list-membership/sorted so preprocessing
// reliably outruns a 1ms budget and one query can be parked in flight —
// that makes every documented 413/429/503 body deterministic.
func TestAPIDocEnvelopeExamples(t *testing.T) {
	docBytes, err := os.ReadFile("docs/API.md")
	if err != nil {
		t.Fatalf("docs/API.md missing: %v", err)
	}
	doc := string(docBytes)

	gate := make(chan struct{})
	entered := make(chan struct{}, 2)
	base := pitract.ServeCatalog()["list-membership/sorted"]
	slow := &pitract.Scheme{
		SchemeName: base.SchemeName,
		Preprocess: func(d []byte) ([]byte, error) {
			time.Sleep(50 * time.Millisecond)
			return base.Preprocess(d)
		},
		Answer: func(pd, q []byte) (bool, error) {
			if string(q) == "park" {
				entered <- struct{}{}
				<-gate
				return false, nil
			}
			return base.Answer(pd, q)
		},
	}
	catalog := pitract.ServeCatalog()
	catalog[slow.SchemeName] = slow

	srv := pitract.NewServer(pitract.NewStoreRegistry(""), catalog)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// Runs before ts.Close (defers are LIFO): if an assertion fails while a
	// query is parked, releasing it keeps Close from waiting forever.
	defer close(gate)
	client := ts.Client()

	post := func(t *testing.T, path, body string) (*http.Response, string) {
		t.Helper()
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, strings.TrimSpace(buf.String())
	}
	replay := func(t *testing.T, path, reqBody string, wantStatus int, wantBody string) *http.Response {
		t.Helper()
		if reqBody != "" && !strings.Contains(doc, reqBody) {
			t.Errorf("docs/API.md does not contain the documented request body %s", reqBody)
		}
		if !strings.Contains(doc, wantBody) {
			t.Errorf("docs/API.md does not contain the documented response body %s", wantBody)
		}
		resp, body := post(t, path, reqBody)
		if resp.StatusCode != wantStatus {
			t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, wantStatus, body)
		}
		if body != wantBody {
			t.Fatalf("live response diverged from docs/API.md:\n got: %s\nwant: %s", body, wantBody)
		}
		return resp
	}

	// The doc's envelope invocation: -max-body-bytes 128 -max-batch 2.
	srv.SetLimits(pitract.ServerLimits{MaxBodyBytes: 128, MaxBatchQueries: 2})
	replay(t, "/v1/datasets",
		`{"id":"big","scheme":"list-membership/sorted","data":"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"}`,
		http.StatusRequestEntityTooLarge,
		`{"error":"request body exceeds the 128-byte limit"}`)
	replay(t, "/v1/query/batch",
		`{"dataset":"m","queries":["goCAgICAgICAAQ==","iYCAgICAgICAAQ==","goCAgICAgICAAQ=="]}`,
		http.StatusRequestEntityTooLarge,
		`{"error":"batch of 3 queries exceeds the 2-query limit"}`)

	// -register-budget 1ms: the wrapped Preprocess sleeps 50ms, so the
	// budget reliably expires mid-build and the build is abandoned.
	srv.SetLimits(pitract.ServerLimits{RegisterBudget: time.Millisecond})
	replay(t, "/v1/datasets",
		`{"id":"slow","scheme":"list-membership/sorted","data":"AwIEBg=="}`,
		http.StatusServiceUnavailable,
		`{"error":"store: register \"slow\": request budget exceeded (context deadline exceeded)"}`)

	// -max-inflight 1, saturated by one parked query ("park" base64).
	srv.SetLimits(pitract.ServerLimits{MaxInFlight: 1})
	if _, body := post(t, "/v1/datasets", `{"id":"m","scheme":"list-membership/sorted","data":"AwIEBg=="}`); !strings.Contains(body, `"id":"m"`) {
		t.Fatalf("registering the demo dataset: %s", body)
	}
	parked := make(chan string, 1)
	go func() {
		_, body := post(t, "/v1/query", `{"dataset":"m","query":"cGFyaw=="}`)
		parked <- body
	}()
	<-entered
	resp := replay(t, "/v1/query", `{"dataset":"m","query":"goCAgICAgICAAQ=="}`,
		http.StatusTooManyRequests,
		`{"error":"server at capacity (1 in flight); retry after 1s"}`)
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After header %q, want %q", got, "1")
	}
	gate <- struct{}{}
	<-parked

	// -max-inflight-dataset 1: the dataset is named and other datasets
	// keep answering, exactly as the doc's prose quotes.
	srv.SetLimits(pitract.ServerLimits{MaxInFlightPerDataset: 1})
	go func() {
		_, body := post(t, "/v1/query", `{"dataset":"m","query":"cGFyaw=="}`)
		parked <- body
	}()
	<-entered
	wantPerDS := `dataset "m" at capacity (1 in flight)`
	if !strings.Contains(doc, wantPerDS) {
		t.Errorf("docs/API.md does not quote the per-dataset rejection %s", wantPerDS)
	}
	resp, body := post(t, "/v1/query", `{"dataset":"m","query":"goCAgICAgICAAQ=="}`)
	// On the wire the quotes around the dataset id are JSON-escaped.
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(body, `dataset \"m\" at capacity (1 in flight)`) {
		t.Fatalf("per-dataset rejection: status %d body %s", resp.StatusCode, body)
	}
	gate <- struct{}{}
	<-parked
}
