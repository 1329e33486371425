package server

// The wire-compatibility pins for the one-pass batch decoder. encoding/json
// is the reference: FuzzBatchDecode holds decodeBatch to "decline, or agree
// exactly", TestBatchErrorBodiesUnchanged holds the HTTP face of every
// malformed body to the bytes the reference handler prologue writes, and
// the over-limit and aliasing tests pin the two resource properties the
// decoder adds (a refused batch is never allocated; decoded queries never
// live in pooled memory).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pitract/internal/core"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// batchCanonical is the docs/API.md batch body: 2 is a member of [1,2,3],
// 9 is not.
const batchCanonical = `{"dataset":"m","queries":["goCAgICAgICAAQ==","iYCAgICAgICAAQ=="],"parallelism":2}`

// batchDecodeSeeds is the committed corpus: every way a body can leave the
// canonical shape, plus the canonical shape cut off at every byte.
func batchDecodeSeeds() []string {
	seeds := []string{
		batchCanonical,
		`{"dataset":"m","queries":["goCAgICAgICAAQ=="]}`,
		`{"queries":["goCAgICAgICAAQ=="],"parallelism":-3,"dataset":"m"}`,
		`{}`,
		`{"dataset":"m"}`,
		`{"dataset":"m","queries":[]}`,
		`{"dataset":"m","queries":[""]}`,
		`{"dataset":"m","queries":["","goCAgICAgICAAQ==",""]}`,
		// Escapes the reference honours and the fast path declines.
		`{"dataset":"m","queries":["goCAgICAgICA\u0041Q=="]}`,
		`{"dataset":"m","queries":["goCAgICAgICAAQ=\/"]}`,
		`{"d\u0061taset":"m","queries":["goCAgICAgICAAQ=="]}`,
		`{"dataset":"\u006d","queries":["goCAgICAgICAAQ=="]}`,
		// Whitespace everywhere JSON allows it.
		" {\n\t\"dataset\" : \"m\" ,\r\n \"queries\" : [ \"goCAgICAgICAAQ==\" , \"iYCAgICAgICAAQ==\" ] , \"parallelism\" : 2 } \n",
		// Raw control bytes and non-ASCII inside strings.
		"{\"dataset\":\"m\",\"queries\":[\"goCAgICA\ngICAAQ==\"]}",
		"{\"dataset\":\"m\",\"queries\":[\"goCAgICA\rgICAAQ==\"]}",
		"{\"dataset\":\"m\x00\",\"queries\":[]}",
		"{\"dataset\":\"m\u00e9\",\"queries\":[]}",
		"{\"dataset\":\"m\xff\",\"queries\":[]}",
		// null, in each position.
		`{"dataset":"m","queries":null}`,
		`{"dataset":null,"queries":[]}`,
		`{"dataset":"m","queries":[null]}`,
		`{"dataset":"m","queries":[],"parallelism":null}`,
		`null`,
		// Keys: repeated, differently cased, unknown.
		`{"dataset":"m","queries":["goCAgICAgICAAQ=="],"queries":["iYCAgICAgICAAQ=="]}`,
		`{"dataset":"x","dataset":"m","queries":[]}`,
		`{"dataset":"m","Queries":["goCAgICAgICAAQ=="]}`,
		`{"DATASET":"m","queries":["goCAgICAgICAAQ=="]}`,
		`{"dataset":"m","queries":[],"extra":1}`,
		`{"dataset":"m","queries":[],"":1}`,
		// Trailing bytes after the closing brace: json.Decoder stops at it.
		batchCanonical + `garbage`,
		batchCanonical + `,,,,,,,,`,
		batchCanonical + batchCanonical,
		// Base64: bad alphabet, unpadded, padding in the middle, URL alphabet.
		`{"dataset":"m","queries":["goCAgICAgICAAQ"]}`,
		`{"dataset":"m","queries":["goCAgICAgICAAQ="]}`,
		`{"dataset":"m","queries":["go*AgICAgICAAQ=="]}`,
		`{"dataset":"m","queries":["QQ==QQ=="]}`,
		`{"dataset":"m","queries":["-_-_"]}`,
		`{"dataset":"m","queries":["goCAgICAgICAAQ==","!"]}`,
		// parallelism: every number form.
		`{"dataset":"m","queries":[],"parallelism":0}`,
		`{"dataset":"m","queries":[],"parallelism":-0}`,
		`{"dataset":"m","queries":[],"parallelism":-1}`,
		`{"dataset":"m","queries":[],"parallelism":007}`,
		`{"dataset":"m","queries":[],"parallelism":+7}`,
		`{"dataset":"m","queries":[],"parallelism":-}`,
		`{"dataset":"m","queries":[],"parallelism":1.5}`,
		`{"dataset":"m","queries":[],"parallelism":1.0}`,
		`{"dataset":"m","queries":[],"parallelism":1e2}`,
		`{"dataset":"m","queries":[],"parallelism":9223372036854775807}`,
		`{"dataset":"m","queries":[],"parallelism":9223372036854775808}`,
		`{"dataset":"m","queries":[],"parallelism":-9223372036854775808}`,
		`{"dataset":"m","queries":[],"parallelism":99999999999999999999999}`,
		`{"dataset":"m","queries":[],"parallelism":"2"}`,
		`{"dataset":"m","queries":[],"parallelism":true}`,
		// Wrong value kinds and stray structure.
		`{"dataset":7,"queries":[]}`,
		`{"dataset":"m","queries":"goCAgICAgICAAQ=="}`,
		`{"dataset":"m","queries":{"0":"goCAgICAgICAAQ=="}}`,
		`{"dataset":"m","queries":[["goCAgICAgICAAQ=="]]}`,
		`{"dataset":"m","queries":["goCAgICAgICAAQ==",]}`,
		`{"dataset":"m","queries":[,"goCAgICAgICAAQ=="]}`,
		`{"dataset":"m",,"queries":[]}`,
		`{"dataset":"m","queries":[],}`,
		`{"dataset" "m"}`,
		`["dataset","m"]`,
		`"dataset"`,
		`7`,
		``,
		` `,
	}
	for cut := 0; cut < len(batchCanonical); cut++ {
		seeds = append(seeds, batchCanonical[:cut])
	}
	return seeds
}

// referenceDecode is what the handler did before the one-pass decoder and
// still does on a decline.
func referenceDecode(body []byte) (BatchRequest, error) {
	var req BatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// checkAgainstReference is the differential property for one body under one
// batch cap.
func checkAgainstReference(t *testing.T, body []byte, max int) {
	t.Helper()
	want, err := referenceDecode(body)
	// declinedCount is over the cap exactly when the reference decodes more
	// than max queries, and is then their number.
	over := 0
	if err == nil && len(want.Queries) > max {
		over = len(want.Queries)
	}
	if n := declinedCount(body, max); n != over && (n > max || over > max) {
		t.Fatalf("max %d: declinedCount(%q) = %d, reference decodes %d queries (err %v)", max, body, n, len(want.Queries), err)
	}
	got, n, ok := decodeBatch(body, max)
	if !ok {
		return
	}
	if err != nil {
		t.Fatalf("max %d: accepted %q, which the reference rejects: %v", max, body, err)
	}
	if n != len(want.Queries) {
		t.Fatalf("max %d: counted %d queries in %q, reference decodes %d", max, n, body, len(want.Queries))
	}
	if n > max {
		if got.Queries != nil {
			t.Fatalf("max %d: decoded %d queries of an over-limit body %q", max, len(got.Queries), body)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("max %d: body %q\n got %#v\nwant %#v", max, body, got, want)
	}
}

// FuzzBatchDecode: for arbitrary bytes the one-pass decoder declines or
// returns exactly the reference's BatchRequest, and never accepts what the
// reference rejects. max is fuzzed too, so the count-only walk an
// over-limit body takes is held to the same reference.
func FuzzBatchDecode(f *testing.F) {
	for _, s := range batchDecodeSeeds() {
		f.Add([]byte(s), uint8(200))
		f.Add([]byte(s), uint8(1))
	}
	f.Fuzz(func(t *testing.T, body []byte, max uint8) {
		checkAgainstReference(t, body, int(max))
		checkAgainstReference(t, body, DefaultMaxBatchQueries)
	})
}

// TestBatchDecodeTakesTheFastPath keeps the differential honest from the
// other side: the shapes clients actually send must not be declined.
func TestBatchDecodeTakesTheFastPath(t *testing.T) {
	for _, body := range []string{
		batchCanonical,
		`{"dataset":"m","queries":[]}`,
		`{}`,
		" {\n\t\"dataset\" : \"m\" ,\r\n \"queries\" : [ \"goCAgICAgICAAQ==\" ] , \"parallelism\" : -2 } ",
		batchCanonical + `trailing`,
		string(benchBatchBody(DefaultMaxBatchQueries)),
	} {
		if _, _, ok := decodeBatch([]byte(body), DefaultMaxBatchQueries); !ok {
			t.Errorf("declined %q", body)
		}
	}
	// What json.Marshal(BatchRequest) emits is the canonical shape.
	req := BatchRequest{Dataset: "m", Queries: [][]byte{schemes.PointQuery(2), {}, schemes.PointQuery(9)}}
	body, _ := json.Marshal(req)
	got, n, ok := decodeBatch(body, DefaultMaxBatchQueries)
	if !ok || n != 3 || !reflect.DeepEqual(got, req) {
		t.Fatalf("marshalled request %s decoded to %#v (n=%d ok=%v)", body, got, n, ok)
	}
	// Each query is capped at its own length: an append cannot run into the
	// neighbour sharing the backing array.
	for i, q := range got.Queries {
		if cap(q) != len(q) {
			t.Fatalf("query %d: cap %d, len %d", i, cap(q), len(q))
		}
	}
}

// batchTestServer serves list [1,2,3] as "m", with a 4-query batch cap.
func batchTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(store.NewRegistry(""), nil)
	srv.SetLimits(Limits{MaxBatchQueries: 4})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/datasets", RegisterRequest{
		ID: "m", Scheme: "list-membership/sorted", Data: schemes.EncodeList([]int64{1, 2, 3}),
	}, nil); code != http.StatusOK {
		t.Fatalf("register status %d", code)
	}
	return srv, ts
}

// postRaw posts body verbatim and returns the status and the response bytes.
func postRaw(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.String()
}

// TestBatchErrorBodiesUnchanged: for every seed the status and response
// bytes are what the reference prologue — json.Decoder with
// DisallowUnknownFields, then the batch cap — produces, and a handful of
// bodies recorded from the commit before the one-pass decoder pin that the
// in-test reference itself has not drifted.
func TestBatchErrorBodiesUnchanged(t *testing.T) {
	_, ts := batchTestServer(t)
	over := `{"dataset":"m","queries":["","","","",""]}`
	for _, body := range append(batchDecodeSeeds(), over) {
		status, got := postRaw(t, ts, "/v1/query/batch", body)
		want, err := referenceDecode([]byte(body))
		switch {
		case err != nil:
			wantBody := fmt.Sprintf("{\"error\":%q}\n", "bad request body: "+err.Error())
			if status != http.StatusBadRequest || got != wantBody {
				t.Errorf("body %q:\n got %d %s\nwant 400 %s", body, status, got, wantBody)
			}
		case len(want.Queries) > 4:
			wantBody := fmt.Sprintf("{\"error\":\"batch of %d queries exceeds the 4-query limit\"}\n", len(want.Queries))
			if status != http.StatusRequestEntityTooLarge || got != wantBody {
				t.Errorf("body %q:\n got %d %s\nwant 413 %s", body, status, got, wantBody)
			}
		default:
			// A body the reference decodes is served exactly like the
			// canonical encoding of what it decodes to.
			canon, _ := json.Marshal(want)
			if wantStatus, wantBody := postRaw(t, ts, "/v1/query/batch", string(canon)); status != wantStatus || got != wantBody {
				t.Errorf("body %q:\n got %d %s\nits canonical form %s:\n got %d %s", body, status, got, canon, wantStatus, wantBody)
			}
		}
	}
	for _, rec := range []struct {
		body, want string
		status     int
	}{
		{batchCanonical, `{"answers":[true,false],"version":0}`, 200},
		{batchCanonical + `garbage`, `{"answers":[true,false],"version":0}`, 200},
		{`{"d\u0061taset":"m","queries":["goCAgICAgICA\u0041Q=="]}`, `{"answers":[true],"version":0}`, 200},
		{`{"dataset":"m","queries":null}`, `{"answers":[],"version":0}`, 200},
		{`{}`, `{"error":"missing dataset id"}`, 400},
		{``, `{"error":"bad request body: EOF"}`, 400},
		{`{"dataset":"m","queries":[`, `{"error":"bad request body: unexpected EOF"}`, 400},
		{`{"dataset":"m","queries":[],"extra":1}`, `{"error":"bad request body: json: unknown field \"extra\""}`, 400},
		{`{"dataset":"m","queries":["goCAgICAgICAAQ"]}`, `{"error":"bad request body: illegal base64 data at input byte 12"}`, 400},
		{`{"dataset":"m","queries":[],"parallelism":1.5}`, `{"error":"bad request body: json: cannot unmarshal number 1.5 into Go struct field BatchRequest.parallelism of type int"}`, 400},
		{`{"dataset":"m","queries":[],"parallelism":9223372036854775808}`, `{"error":"bad request body: json: cannot unmarshal number 9223372036854775808 into Go struct field BatchRequest.parallelism of type int"}`, 400},
		{`{"dataset":"m","queries":["goCAgICAgICAAQ==",]}`, `{"error":"bad request body: invalid character ']' looking for beginning of value"}`, 400},
		{over, `{"error":"batch of 5 queries exceeds the 4-query limit"}`, 413},
	} {
		status, got := postRaw(t, ts, "/v1/query/batch", rec.body)
		if status != rec.status || strings.TrimSpace(got) != rec.want {
			t.Errorf("body %q:\n got %d %s\nwant %d %s", rec.body, status, got, rec.status, rec.want)
		}
	}
}

// benchBatchBody is a canonical body of n 16-byte queries — the shape of
// the benchmark's closure batches.
func benchBatchBody(n int) []byte {
	req := BatchRequest{Dataset: "closure"}
	for i := 0; i < n; i++ {
		req.Queries = append(req.Queries, []byte(fmt.Sprintf("%016d", i)))
	}
	body, _ := json.Marshal(req)
	return body
}

// overLimitBody is a syntactically canonical body of n empty queries.
func overLimitBody(n int) string {
	return `{"dataset":"m","queries":[` + strings.Repeat(`"",`, n-1) + `""]}`
}

// TestOverLimitBatchRefusedBeforeAllocation: the batch cap is enforced from
// the element count alone — the allocations of a refusal do not grow with
// the number of elements — and the status, body and counter are the ones
// the post-decode check produced. That holds for a canonical body, which the
// one-pass decoder counts, and for one it declines (an escaped key, null
// queries), which declinedCount counts before the reference decoder could
// build the [][]byte. Escaped queries are refused the same way, but each is
// checked by the reference in passing, so only their status is pinned.
func TestOverLimitBatchRefusedBeforeAllocation(t *testing.T) {
	for name, overLimit := range map[string]func(n int) string{
		"canonical":   overLimitBody,
		"escaped key": func(n int) string { return strings.Replace(overLimitBody(n), "dataset", `d\u0061taset`, 1) },
		"null queries": func(n int) string {
			return `{"dataset":"m","queries":[` + strings.Repeat(`"QUE=",null,`, n/2-1) + `"",""]}`
		},
		"escaped queries": func(n int) string {
			return `{"dataset":"m","queries":[` + strings.Repeat(`"QU\u0045=",`, n-1) + `""]}`
		},
	} {
		srv, ts := batchTestServer(t)
		if _, _, fast := decodeBatch([]byte(overLimit(5000)), 4); fast != (name == "canonical") {
			t.Fatalf("%s: one-pass decoder accepted = %v", name, fast)
		}
		status, got := postRaw(t, ts, "/v1/query/batch", overLimit(5000))
		if status != http.StatusRequestEntityTooLarge || got != "{\"error\":\"batch of 5000 queries exceeds the 4-query limit\"}\n" {
			t.Fatalf("%s: over-limit batch: %d %s", name, status, got)
		}
		if st := srv.env.stats(); st.RejectedBatch413 != 1 || st.PerEndpoint["/v1/query/batch"].RejectedBatch413 != 1 {
			t.Fatalf("%s: rejected_batch_413 not counted once: %+v", name, st)
		}

		refusal := func(n int) float64 {
			body := overLimit(n)
			return testing.AllocsPerRun(20, func() {
				r := httptest.NewRequest(http.MethodPost, "/v1/query/batch", strings.NewReader(body))
				w := httptest.NewRecorder()
				srv.handleQueryBatch(w, r)
				if w.Code != http.StatusRequestEntityTooLarge {
					t.Fatalf("%s: status %d", name, w.Code)
				}
			})
		}
		// 16 allocations of slack; a declined body is also copied into the
		// reference decoder's buffer, which doubles ~10 more times on the
		// way from 50 elements to 50000.
		small, large := refusal(50), refusal(50000)
		if large > small+32 && name != "escaped queries" {
			t.Fatalf("%s: refusing 50000 elements took %.0f allocations, 50 elements %.0f: the cap is checked after allocating", name, large, small)
		}
	}
	// The count-only walk on its own: one scratch buffer at most.
	body := []byte(overLimitBody(50000))
	if n := testing.AllocsPerRun(20, func() { decodeBatch(body, 4) }); n > 2 {
		t.Fatalf("count-only walk of 50000 elements: %.0f allocations", n)
	}
}

// TestBatchQueriesNeverAliasPooledBody: a batch abandoned at its deadline
// leaves a worker that still reads its queries after the handler has
// returned and the body buffer has gone back to the pool. The worker parks
// inside the scheme's Answer; 64 further batches then cycle the pool; the
// parked worker is released and must read exactly the bytes it was sent.
// Run under -race: a query aliasing pooled memory is also a data race with
// the next request's body read.
func TestBatchQueriesNeverAliasPooledBody(t *testing.T) {
	const workers = 4
	var (
		gate    = make(chan struct{})
		entered atomic.Int32
		mu      sync.Mutex
		seen    []string
	)
	cat := Catalog()
	cat["test/park"] = &core.Scheme{
		SchemeName: "test/park",
		Preprocess: func(d []byte) ([]byte, error) { return d, nil },
		Answer: func(_, q []byte) (bool, error) {
			if len(q) > 0 && q[0] == 'A' {
				entered.Add(1)
				<-gate
				mu.Lock()
				seen = append(seen, string(q))
				mu.Unlock()
			}
			return true, nil
		},
	}
	srv := New(store.NewRegistry(""), cat)
	srv.SetLimits(Limits{QueryBudget: 50 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/datasets", RegisterRequest{ID: "p", Scheme: "test/park"}, nil); code != http.StatusOK {
		t.Fatalf("register status %d", code)
	}

	query := func(prefix byte, i int) string {
		return fmt.Sprintf("%c-query-%03d-%s", prefix, i, strings.Repeat("x", 40))
	}
	batch := func(prefix byte) string {
		req := BatchRequest{Dataset: "p", Parallelism: workers}
		for i := 0; i < workers; i++ {
			req.Queries = append(req.Queries, []byte(query(prefix, i)))
		}
		body, _ := json.Marshal(req)
		return string(body)
	}
	if status, body := postRaw(t, ts, "/v1/query/batch", batch('A')); status != http.StatusGatewayTimeout {
		t.Fatalf("parked batch: %d %s, want 504", status, body)
	}
	if entered.Load() == 0 {
		t.Fatal("the batch was abandoned before any worker took a query: nothing to observe")
	}
	for i := 0; i < 64; i++ {
		if status, body := postRaw(t, ts, "/v1/query/batch", batch('B')); status != http.StatusOK {
			t.Fatalf("batch %d: %d %s", i, status, body)
		}
	}
	// Workers that had not taken a query by the deadline saw the expired
	// context and took none, so entered is final here.
	close(gate)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n == int(entered.Load()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned workers reported %d of %d queries", n, entered.Load())
		}
	}
	own := map[string]bool{}
	for i := 0; i < workers; i++ {
		own[query('A', i)] = true
	}
	mu.Lock()
	defer mu.Unlock()
	for _, q := range seen {
		if !own[q] {
			t.Fatalf("abandoned worker read %q: not one of its own queries", q)
		}
		delete(own, q)
	}
}

// BenchmarkBatchDecode is the wire-decode layer's own number: the
// reference decoder against the one-pass decoder on canonical bodies of
// 16-byte queries (run with -benchmem).
func BenchmarkBatchDecode(b *testing.B) {
	for _, n := range []int{256, 1024} {
		body := benchBatchBody(n)
		b.Run(fmt.Sprintf("reference/%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := referenceDecode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("onepass/%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, _, ok := decodeBatch(body, DefaultMaxBatchQueries); !ok {
					b.Fatal("declined")
				}
			}
		})
	}
}
