package server

// The pins for the answer wire path's other pieces: the single-query body's
// one-pass decoder against encoding/json (FuzzQueryDecode), the fused
// scan-and-decode kernel against base64.StdEncoding (FuzzStdBase64), and
// the hand-appended answer bodies against json.NewEncoder
// (TestAnswerEncodingMatchesJSON).

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
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

// queryCanonical is a single-query body in the shape json.Marshal emits;
// AQID is the three bytes 1, 2, 3.
const queryCanonical = `{"dataset":"k","query":"AQID"}`

// queryCap is the body cap of the server FuzzQueryDecode queries.
const queryCap = 128

// queryDecodeSeeds are the ways a single-query body leaves the canonical
// shape, the canonical shape cut off at every byte, and bodies of exactly
// the cap and one byte over it.
func queryDecodeSeeds() []string {
	atCap := func(n int) string {
		head := `{"dataset":"k","query":"`
		quanta := (n - len(head) - 2) / 4
		pad := n - len(head) - 2 - 4*quanta
		return head + strings.Repeat("AQID", quanta) + `"` + strings.Repeat(" ", pad) + `}`
	}
	seeds := []string{
		queryCanonical,
		`{"query":"AQID","dataset":"k"}`,
		`{"dataset":"k","query":""}`,
		`{"dataset":"k","query":"AQ=="}`,
		`{"dataset":"k","query":"AQI="}`,
		`{"dataset":"k"}`,
		`{"query":"AQID"}`,
		`{}`,
		`{"dataset":"ghost","query":"AQID"}`,
		" {\n\t\"dataset\" : \"k\" ,\r\n \"query\" : \"AQID\" } \n",
		// Escapes the reference honours and the fast path declines.
		`{"dataset":"k","query":"AQI\u0044"}`,
		`{"d\u0061taset":"k","query":"AQID"}`,
		`{"dataset":"k","query":"AQ\/D"}`,
		// Keys: unknown, repeated, differently cased.
		`{"dataset":"k","query":"AQID","extra":1}`,
		`{"dataset":"k","query":"AAAA","query":"AQID"}`,
		`{"dataset":"x","dataset":"k","query":"AQID"}`,
		`{"Dataset":"k","QUERY":"AQID"}`,
		// null, in each position.
		`{"dataset":"k","query":null}`,
		`{"dataset":null,"query":"AQID"}`,
		`null`,
		// Base64: unpadded, bad alphabet, URL alphabet, padding inside or
		// short, CR and LF (which the reference's decoder skips).
		`{"dataset":"k","query":"AQI"}`,
		`{"dataset":"k","query":"AQ="}`,
		`{"dataset":"k","query":"AQ*D"}`,
		`{"dataset":"k","query":"-_-_"}`,
		`{"dataset":"k","query":"AQ==AQ=="}`,
		`{"dataset":"k","query":"A==="}`,
		"{\"dataset\":\"k\",\"query\":\"AQ\r\nID\"}",
		// Wrong value kinds, stray structure, trailing bytes.
		`{"dataset":7,"query":"AQID"}`,
		`{"dataset":"k","query":[1,2,3]}`,
		`{"dataset":"k",,"query":"AQID"}`,
		`{"dataset":"k","query":"AQID",}`,
		queryCanonical + `garbage`,
		queryCanonical + queryCanonical,
		"{\"dataset\":\"k\xff\",\"query\":\"AQID\"}",
		`[]`,
		``,
		atCap(queryCap),
		atCap(queryCap + 1),
	}
	for cut := 0; cut < len(queryCanonical); cut++ {
		seeds = append(seeds, queryCanonical[:cut])
	}
	return seeds
}

// serveQuery posts body to POST /v1/query on a fresh server under a body
// cap of limit bytes and returns the status and response bytes. Its one
// dataset, "k", answers an even-length query with its first bit and refuses
// an odd-length one naming its bytes, so a query decoded differently shows
// in the response.
func serveQuery(body []byte, limit int64) (int, string) {
	scheme := &core.Scheme{
		SchemeName: "test/echo",
		Preprocess: func(d []byte) ([]byte, error) { return d, nil },
		Prepare: core.ProbeInPlace(func(_, q []byte) (bool, error) {
			if len(q)%2 == 1 {
				return false, fmt.Errorf("query %x", q)
			}
			return len(q) > 0 && q[0]&1 == 1, nil
		}),
	}
	srv := New(store.NewRegistry(""), map[string]*core.Scheme{scheme.Name(): scheme})
	if _, err := srv.reg.Register("k", scheme, nil); err != nil {
		panic(err)
	}
	srv.SetLimits(Limits{MaxBodyBytes: limit})
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	return w.Code, w.Body.String()
}

// FuzzQueryDecode: for arbitrary bytes the one-pass single-query decoder
// declines or returns exactly the reference's QueryRequest, and the handler
// answers every body — declined, refused, over the cap or accepted — as the
// reference prologue (json.Decoder under the byte cap) and the rest of the
// handler would: a refusal with the reference's status and error text, an
// accepted body exactly as the canonical encoding of what the reference
// decodes it to.
func FuzzQueryDecode(f *testing.F) {
	for _, s := range queryDecodeSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var want QueryRequest
		err := dec.Decode(&want)
		if got, ok := decodeQuery(body); ok {
			if err != nil {
				t.Fatalf("accepted %q, which the reference rejects: %v", body, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("body %q\n got %#v\nwant %#v", body, got, want)
			}
		}
		dec = json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), queryCap))
		dec.DisallowUnknownFields()
		want = QueryRequest{}
		err = dec.Decode(&want)
		status, resp := serveQuery(body, queryCap)
		var wantStatus int
		var wantResp string
		refusal := func(status int, msg string) (int, string) {
			b, _ := json.Marshal(errorResponse{Error: msg})
			return status, string(b) + "\n"
		}
		var mbe *http.MaxBytesError
		switch {
		case errors.As(err, &mbe):
			wantStatus, wantResp = refusal(http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds the %d-byte limit", queryCap))
		case err != nil:
			wantStatus, wantResp = refusal(http.StatusBadRequest, "bad request body: "+err.Error())
		default:
			canon, _ := json.Marshal(want)
			wantStatus, wantResp = serveQuery(canon, int64(len(canon)))
		}
		if status != wantStatus || resp != wantResp {
			t.Fatalf("body %q:\n got %d %s\nwant %d %s", body, status, resp, wantStatus, wantResp)
		}
	})
}

// TestQueryDecodeTakesTheFastPath: what json.Marshal(QueryRequest) emits is
// not declined, and its query is an allocation of its own.
func TestQueryDecodeTakesTheFastPath(t *testing.T) {
	for _, q := range [][]byte{{}, {7}, {7, 8}, schemes.PointQuery(2), schemes.NodePairQuery(4095, 17)} {
		req := QueryRequest{Dataset: "k", Query: q}
		body, _ := json.Marshal(req)
		got, ok := decodeQuery(body)
		if !ok || !reflect.DeepEqual(got, req) {
			t.Fatalf("marshalled request %s decoded to %#v (ok=%v)", body, got, ok)
		}
		before := bytes.Clone(body)
		for i := range got.Query {
			got.Query[i] ^= 0xff
		}
		if !bytes.Equal(body, before) {
			t.Fatal("the decoded query aliases the body")
		}
	}
	for _, body := range []string{queryCanonical, " {\n\t\"query\" : \"AQ==\" ,\r\n \"dataset\" : \"k\" } ", queryCanonical + `trailing`, `{}`} {
		if _, ok := decodeQuery([]byte(body)); !ok {
			t.Errorf("declined %q", body)
		}
	}
}

// FuzzStdBase64: on the content of an arbitrary JSON string, the fused
// kernel declines or returns exactly base64.StdEncoding.Decode's bytes — it
// never accepts what the standard decoder refuses — and it never declines
// what base64.StdEncoding.EncodeToString emits. The two-quanta loop a
// registration's data runs in parts (quanta) accepts the whole pairs of
// quanta of the content exactly when every byte is of the alphabet, and
// decodes them to the standard decoder's bytes.
func FuzzStdBase64(f *testing.F) {
	for _, s := range []string{
		"", "QQ==", "QUI=", "QUJD", "QUJDRA==", "QUJDREU=", "QR==", "QUL=",
		"Q", "QQ", "QUJ", "QQ=", "=", "==", "====", "x===", "=QQ=", "QQ=Q",
		"QQ==QQ==", "QUJD=", "QUJD====", "QUJ\"D", "QU\\JD", "QUJD\r\n",
		"QU\nJD", "-_-_", "QUJD\x00", "QUJD\xff", "QUJDRA==\"tail", "\"",
		"QUJDREVGR0hJSktMTU5P", "QUJDREVGR0h-SktMTU5P", "QUJDREVGR0hJSktMTU5PUQ==",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, s []byte) {
		b := append(bytes.Clone(s), '"')
		dst := make([]byte, base64.StdEncoding.DecodedLen(len(b)))
		if n, end, ok := quotedBase64(dst, b); ok {
			content := b[:end]
			if b[end] != '"' || bytes.ContainsAny(content, "\"\\\r\n") {
				t.Fatalf("%q: ended at %d on a string that does not end there", s, end)
			}
			want, err := base64.StdEncoding.DecodeString(string(content))
			if err != nil {
				t.Fatalf("%q: accepted %q, which the standard decoder refuses: %v", s, content, err)
			}
			if !bytes.Equal(dst[:n], want) {
				t.Fatalf("%q: decoded %x, the standard decoder %x", s, dst[:n], want)
			}
		}
		whole := s[:len(s)/8*8]
		dst = make([]byte, len(whole)/4*3)
		alphabet := !bytes.ContainsFunc(whole, func(r rune) bool {
			return !strings.ContainsRune("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", r)
		})
		if ok := quanta(dst, whole); ok != alphabet {
			t.Fatalf("%q: quanta says %v, the alphabet %v", whole, ok, alphabet)
		} else if want, err := base64.StdEncoding.DecodeString(string(whole)); ok && (err != nil || !bytes.Equal(dst, want)) {
			t.Fatalf("%q: quanta decoded %x, the standard decoder %x (%v)", whole, dst, want, err)
		}
		enc := []byte(base64.StdEncoding.EncodeToString(s) + `"`)
		dst = make([]byte, base64.StdEncoding.DecodedLen(len(enc)))
		if n, end, ok := quotedBase64(dst, enc); !ok || end != len(enc)-1 || !bytes.Equal(dst[:n], s) {
			t.Fatalf("%q: the encoding of %x declined or misread (ok=%v end=%d got %x)", enc, s, ok, end, dst[:n])
		}
	})
}

// answerSets are the verdict slices the encoder pins run over: nil, empty,
// and 1, 64, 1024 and 4097 random verdicts.
func answerSets() [][]bool {
	rng := rand.New(rand.NewSource(31))
	sets := [][]bool{nil, {}}
	for _, n := range []int{1, 64, 1024, 4097} {
		a := make([]bool, n)
		for i := range a {
			a[i] = rng.Intn(2) == 1
		}
		sets = append(sets, a)
	}
	return sets
}

// TestAnswerEncodingMatchesJSON: the appended answer bodies are byte-equal
// to json.NewEncoder's, and a 1024-verdict response goes out with a
// Content-Length, not chunked.
func TestAnswerEncodingMatchesJSON(t *testing.T) {
	encode := func(v any) string {
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(v)
		return buf.String()
	}
	for _, version := range []uint64{0, 1, 1 << 32, math.MaxUint64} {
		for _, answer := range []bool{false, true} {
			got := string(appendQueryResponse(nil, answer, version))
			if want := encode(QueryResponse{Answer: answer, Version: version}); got != want {
				t.Fatalf("query response %v@%d: %q, encoding/json %q", answer, version, got, want)
			}
		}
		for _, answers := range answerSets() {
			got := string(appendBatchResponse(make([]byte, 0, 3), store.Verdicts{Answers: answers, Version: version}))
			if want := encode(BatchResponse{Answers: answers, Version: version}); got != want {
				t.Fatalf("batch response of %d answers (nil %v) at %d: %q, encoding/json %q", len(answers), answers == nil, version, got, want)
			}
		}
	}

	srv := New(store.NewRegistry(""), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/datasets", RegisterRequest{
		ID: "m", Scheme: "list-membership/sorted", Data: schemes.EncodeList([]int64{1, 2, 3}),
	}, nil); code != http.StatusOK {
		t.Fatalf("register status %d", code)
	}
	req := BatchRequest{Dataset: "m"}
	for i := 0; i < 1024; i++ {
		req.Queries = append(req.Queries, schemes.PointQuery(int64(i%5)))
	}
	single, _ := json.Marshal(QueryRequest{Dataset: "m", Query: schemes.PointQuery(2)})
	batch, _ := json.Marshal(req)
	for path, body := range map[string][]byte{"/v1/query": single, "/v1/query/batch": batch} {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(got)) || resp.TransferEncoding != nil {
			t.Fatalf("%s: %d, Content-Length %d for %d bytes, Transfer-Encoding %v", path, resp.StatusCode, resp.ContentLength, len(got), resp.TransferEncoding)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q", path, ct)
		}
		if path == "/v1/query/batch" && len(got) < 4096 {
			t.Fatalf("%s: a %d-byte body does not show the chunking threshold", path, len(got))
		}
	}
}

// BenchmarkAnswerEncode is the answer-encode layer's own number: what
// writeJSON did for a 1024-verdict batch (json.NewEncoder over the
// BatchResponse) against the appended body (run with -benchmem).
func BenchmarkAnswerEncode(b *testing.B) {
	answers := answerSets()[4]
	var sink bytes.Buffer
	b.Run("reference/1024", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			sink.Reset()
			json.NewEncoder(&sink).Encode(BatchResponse{Answers: answers, Version: 7})
		}
	})
	b.Run("append/1024", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 8<<10)
		for b.Loop() {
			sink.Reset()
			sink.Write(appendBatchResponse(buf[:0], store.Verdicts{Answers: answers, Version: 7}))
		}
	})
}
