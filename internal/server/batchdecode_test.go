package server

// The wire-compatibility pins for the one-pass batch decoder. encoding/json
// is the reference: FuzzBatchDecode holds decodeBatch to "decline, or agree
// exactly", TestBatchErrorBodiesUnchanged holds the HTTP face of every
// malformed body to the bytes the reference handler prologue writes, and
// the over-limit and aliasing tests pin the resource properties the decoder
// adds (a refused batch is never allocated; decoded queries never live in
// the pooled body buffer, and the pooled arena they do live in is never
// recycled under a worker that still reads it).

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"pitract/internal/core"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// batchCanonical is the docs/API.md batch body: 2 is a member of [1,2,3],
// 9 is not.
const batchCanonical = `{"dataset":"m","queries":["goCAgICAgICAAQ==","iYCAgICAgICAAQ=="],"parallelism":2}`

// batchDecodeSeeds is the committed corpus: every way a body can leave the
// canonical shape, plus the canonical shape cut off at every byte.
// decodeBatch runs the one-pass decoder over an arena of its own; the
// serving path decodes into a pooled one (decodeBatchBody).
func decodeBatch(body []byte, max int) (req BatchRequest, n int, ok bool) {
	var a batchArena
	return a.decode(body, max)
}

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

// registerCanonical is a registration body in the shape json.Marshal
// emits; AQID is the three bytes 1, 2, 3.
const registerCanonical = `{"id":"k","scheme":"test/id","data":"AQID"}`

// registerCap is the body cap of the server FuzzRegisterDecode registers on.
const registerCap = 256

// registerDecodeSeeds are the ways a registration body leaves the canonical
// shape, the canonical shape cut off at every byte, and bodies of exactly
// the cap and one byte over it.
func registerDecodeSeeds() []string {
	atCap := func(n int) string {
		head, tail := `{"id":"`, `","scheme":"test/id","data":"AQID"}`
		return head + strings.Repeat("k", n-len(head)-len(tail)) + tail
	}
	seeds := []string{
		registerCanonical,
		`{"data":"AQID","scheme":"test/id","id":"k"}`,
		`{"id":"k","scheme":"test/id"}`,
		`{"id":"k","scheme":"test/id","data":""}`,
		`{}`,
		`{"id":"","scheme":"test/id","data":"AQID"}`,
		`{"id":"k","scheme":"nope","data":"AQID"}`,
		// Whitespace everywhere JSON allows it.
		" {\n\t\"id\" : \"k\" ,\r\n \"scheme\" : \"test/id\" , \"data\" : \"AQID\" } \n",
		// Escapes the reference honours and the fast path declines.
		`{"\u0069d":"k","scheme":"test/id","data":"AQID"}`,
		`{"id":"\u006b","scheme":"test\/id","data":"AQID"}`,
		`{"id":"k","scheme":"test/id","data":"AQI\u0044"}`,
		// Keys: unknown, repeated, differently cased.
		`{"id":"k","scheme":"test/id","data":"AQID","extra":1}`,
		`{"id":"x","id":"k","scheme":"test/id","data":"AQID"}`,
		`{"id":"k","scheme":"test/id","data":"AAAA","data":"AQID"}`,
		`{"ID":"k","Scheme":"test/id","DATA":"AQID"}`,
		// null, in each position.
		`{"id":"k","scheme":"test/id","data":null}`,
		`{"id":null,"scheme":"test/id","data":"AQID"}`,
		`null`,
		// Base64: unpadded, bad alphabet, URL alphabet, padding inside.
		`{"id":"k","scheme":"test/id","data":"AQI"}`,
		`{"id":"k","scheme":"test/id","data":"AQ*D"}`,
		`{"id":"k","scheme":"test/id","data":"-_-_"}`,
		`{"id":"k","scheme":"test/id","data":"AQ==AQ=="}`,
		// CR and LF inside data, which the reference's base64 skips.
		"{\"id\":\"k\",\"scheme\":\"test/id\",\"data\":\"AQ\r\nID\"}",
		"{\"id\":\"k\",\"scheme\":\"test/id\",\"data\":\"AQ\nID\"}",
		// Wrong value kinds, stray structure, trailing bytes.
		`{"id":7,"scheme":"test/id","data":"AQID"}`,
		`{"id":"k","scheme":"test/id","data":[1,2,3]}`,
		`{"id":"k",,"scheme":"test/id"}`,
		`{"id":"k","scheme":"test/id",}`,
		registerCanonical + `garbage`,
		registerCanonical + registerCanonical,
		"{\"id\":\"k\xff\",\"scheme\":\"test/id\",\"data\":\"AQID\"}",
		`[]`,
		``,
		atCap(registerCap),
		atCap(registerCap + 1),
	}
	for cut := 0; cut < len(registerCanonical); cut++ {
		seeds = append(seeds, registerCanonical[:cut])
	}
	return seeds
}

// referenceRegister is what the handler did before the one-pass decoder and
// still does on a decline.
func referenceRegister(body []byte) (RegisterRequest, error) {
	var req RegisterRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// serveRegister posts body to POST /v1/datasets on a fresh server whose
// catalog is one identity scheme, "test/id", under a body cap of limit
// bytes, and returns the status and response bytes.
func serveRegister(body []byte, limit int64) (int, string) {
	cat := map[string]*core.Scheme{"test/id": {
		SchemeName: "test/id",
		Preprocess: func(d []byte) ([]byte, error) { return d, nil },
		Prepare:    core.ProbeInPlace(func(_, q []byte) (bool, error) { return len(q) > 0, nil }),
	}}
	srv := New(store.NewRegistry(""), cat)
	srv.SetLimits(Limits{MaxBodyBytes: limit})
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/datasets", bytes.NewReader(body)))
	return w.Code, w.Body.String()
}

// FuzzRegisterDecode: for arbitrary bytes the one-pass registration decoder
// declines or returns exactly the reference's RegisterRequest, and the
// handler answers every body — declined, refused, over the cap or accepted
// — as the reference prologue (json.Decoder under the byte cap) and the
// rest of the handler would: a refusal with the reference's status and
// error text, an accepted body exactly as the canonical encoding of what the
// reference decodes it to.
//
// The data is decoded in k parts, k from 1 to 8 drawn by the fuzzer.
func FuzzRegisterDecode(f *testing.F) {
	for i, s := range registerDecodeSeeds() {
		f.Add([]byte(s), uint8(i))
	}
	f.Fuzz(func(t *testing.T, body []byte, k uint8) {
		want, err := referenceRegister(body)
		if got, ok := decodeRegisterParts(body, 1+int(k%8)); ok {
			if err != nil {
				t.Fatalf("accepted %q, which the reference rejects: %v", body, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("body %q\n got %#v\nwant %#v", body, got, want)
			}
		}
		// The handler's reference is the prologue it had before the one-pass
		// decoder: json.Decoder over the body under the byte cap.
		dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), registerCap))
		dec.DisallowUnknownFields()
		want = RegisterRequest{}
		err = dec.Decode(&want)
		status, resp := serveRegister(body, registerCap)
		var wantStatus int
		var wantResp string
		refusal := func(status int, msg string) (int, string) {
			b, _ := json.Marshal(errorResponse{Error: msg})
			return status, string(b) + "\n"
		}
		var mbe *http.MaxBytesError
		switch {
		case errors.As(err, &mbe):
			wantStatus, wantResp = refusal(http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds the %d-byte limit", registerCap))
		case err != nil:
			wantStatus, wantResp = refusal(http.StatusBadRequest, "bad request body: "+err.Error())
		default:
			canon, _ := json.Marshal(want)
			wantStatus, wantResp = serveRegister(canon, int64(len(canon)))
		}
		if status != wantStatus || resp != wantResp {
			t.Fatalf("body %q:\n got %d %s\nwant %d %s", body, status, resp, wantStatus, wantResp)
		}
	})
}

// TestRegisterDecodePartsMatchOnePart decodes registration bodies whose
// data is canonical base64 of every length from 0 to 96 bytes, and each
// with one flaw — a byte outside the alphabet, padding inside, the padding
// cut, an escape, no closing quote — at the start, the middle and the end,
// in 2, 3 and 7 parts: the same request, or the same decline, as one part.
func TestRegisterDecodePartsMatchOnePart(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for n := 0; n <= 96; n++ {
		data := make([]byte, n)
		rng.Read(data)
		enc := base64.StdEncoding.EncodeToString(data)
		variants := []string{enc}
		for _, at := range []int{0, len(enc) / 2, max(0, len(enc)-1)} {
			variants = append(variants,
				enc[:at]+"*"+enc[min(at+1, len(enc)):],
				enc[:at]+"="+enc[min(at+1, len(enc)):],
				enc[:at]+`\u0041`+enc[min(at+1, len(enc)):])
		}
		variants = append(variants, strings.TrimRight(enc, "="), enc+`"`)
		for _, v := range variants {
			body := []byte(`{"id":"k","data":"` + v + `","scheme":"s"}`)
			want, wantOK := decodeRegisterParts(body, 1)
			if wantOK && v == enc && !bytes.Equal(want.Data, data) {
				t.Fatalf("%d bytes: decoded %x, want %x", n, want.Data, data)
			}
			for _, k := range []int{2, 3, 7} {
				if got, ok := decodeRegisterParts(body, k); ok != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s in %d parts: %#v (ok=%v), one part %#v (ok=%v)", body, k, got, ok, want, wantOK)
				}
			}
		}
	}
}

// TestRegisterDecodeTakesTheFastPath: what json.Marshal(RegisterRequest)
// emits is not declined, and its data is an allocation of its own.
func TestRegisterDecodeTakesTheFastPath(t *testing.T) {
	req := RegisterRequest{ID: "k", Scheme: "point-selection/sorted-keys", Data: schemes.RelationFromKeys([]int64{3, 1, 2})}
	body, _ := json.Marshal(req)
	got, ok := decodeRegister(body)
	if !ok || !reflect.DeepEqual(got, req) {
		t.Fatalf("marshalled request %s decoded to %#v (ok=%v)", body, got, ok)
	}
	before := bytes.Clone(body)
	for i := range got.Data {
		got.Data[i] ^= 0xff
	}
	if !bytes.Equal(body, before) {
		t.Fatal("the decoded data aliases the body")
	}
	for _, body := range []string{registerCanonical, " {\n\t\"id\" : \"k\" ,\r\n \"data\" : \"\" } ", registerCanonical + `trailing`} {
		if _, ok := decodeRegister([]byte(body)); !ok {
			t.Errorf("declined %q", body)
		}
	}
}

// BenchmarkBatchDecode is the wire-decode layer's own number: the
// reference decoder against the one-pass decoder on canonical bodies of
// 16-byte queries, and of the node pairs closure_batch_cached sends — 2 to
// 4 bytes, every one a padded quantum (run with -benchmem). onepass decodes
// into fresh memory each time; arena is the serving path, a pooled arena
// taken and handed back, which allocates nothing once the pool is warm.
func BenchmarkBatchDecode(b *testing.B) {
	bodies := []struct {
		name string
		body []byte
	}{
		{"256", benchBatchBody(256)},
		{"1024", benchBatchBody(1024)},
		{"pairs-1024", pairBatchBody(1024)},
	}
	for _, c := range bodies {
		body := c.body
		b.Run("reference/"+c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := referenceDecode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("onepass/"+c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, _, ok := decodeBatch(body, DefaultMaxBatchQueries); !ok {
					b.Fatal("declined")
				}
			}
		})
		b.Run("arena/"+c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				a := arenaPool.Get().(*batchArena)
				if _, _, ok := a.decode(body, DefaultMaxBatchQueries); !ok {
					b.Fatal("declined")
				}
				a.release()
			}
		})
	}
}

// pairBatchBody is a canonical body of n node-pair queries over 4096
// vertices, the benchmark's closure graph.
func pairBatchBody(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	req := BatchRequest{Dataset: "closure"}
	for i := 0; i < n; i++ {
		req.Queries = append(req.Queries, schemes.NodePairQuery(rng.Intn(4096), rng.Intn(4096)))
	}
	body, _ := json.Marshal(req)
	return body
}

// BenchmarkRegisterDecode times the registration body point_single posts —
// RelationFromKeys of 2²⁰ keys drawn below 2²², about 9.4 MB of base64 — by
// the reference decoder and by the one-pass one (run at -cpu 1,2: the data
// is decoded in one part per P). It uses only names the parent of the
// k-part kernel had, so the same file times either side.
func BenchmarkRegisterDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(2501))
	keys := make([]int64, 1<<20)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 22)
	}
	body, _ := json.Marshal(RegisterRequest{ID: "k", Scheme: "point-selection/sorted-keys", Data: schemes.RelationFromKeys(keys)})
	b.Run("reference", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			if _, err := referenceRegister(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("onepass", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			if _, ok := decodeRegister(body); !ok {
				b.Fatal("declined")
			}
		}
	})
}
