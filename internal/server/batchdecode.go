package server

// The batch wire path: one read of the body, one pass over it, one backing
// array for every decoded query. encoding/json scans a batch body three
// times (validate, find each value's end, decode) and allocates per query;
// for a 1024-query body that was the largest single cost of the request
// once the probes themselves were cheap.
//
// The batch decoder (batchArena.decode) recognises only the canonical shape
// a client library emits —
//
//	{"dataset":"…","queries":["<std-base64>",…],"parallelism":n}
//
// with the keys in any order and JSON whitespace between tokens — and
// declines everything else: a backslash escape, a byte outside printable
// ASCII inside a string, null, a repeated, differently-cased or unknown
// key, a non-integer parallelism, bad or unpadded base64. It never reports
// an error of its own. On a decline the caller runs encoding/json over the
// same bytes, which stays the single authority for what is accepted, what
// is a 400, and the exact error text (FuzzBatchDecode holds the two equal).
//
// Each query string is scanned and base64-decoded in the same loop
// (quotedBase64), over one 256-entry table, straight into that array. On
// the serving path the array and the query headers are a pooled batchArena,
// so a batch that decodes and answers allocates neither.
//
// A single-query body (decodeQuery; FuzzQueryDecode) and a registration
// body (decodeRegister; FuzzRegisterDecode) take the same path through the
// same walker. A registration's data, megabytes where a query is bytes, is
// read by the same kernel two quanta a step, in parts (base64Data).

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"

	"pitract/internal/parts"
)

// bodyPool recycles the raw-body buffers of batch and registration
// requests. Nothing references a body once it is decoded (queries and data
// are decoded into their own arrays, the strings are copied out), so the
// buffer goes back as soon as the handler has its request.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody keeps one outsized request from pinning its buffer in the
// pool forever; bodies above it are left to the collector.
const maxPooledBody = 1 << 20

// decodeBatchBody reads and decodes one batch request under the envelope's
// body and batch caps. Over the batch cap only the query count is taken —
// by the one-pass decoder, or by declinedCount for a body it declines — with
// nothing decoded or allocated. ok=false means the response was written.
//
// A body the one-pass decoder takes is decoded into a pooled arena, which
// comes back with the request: the queries live in it, and the caller hands
// it back with release once nothing reads them. A declined body is decoded
// by the reference into memory of its own, and arena is nil.
func (s *Server) decodeBatchBody(w http.ResponseWriter, r *http.Request) (req BatchRequest, arena *batchArena, ok bool) {
	buf, readErr := s.readBody(w, r)
	defer putBody(buf)
	max := s.env.limits.MaxBatchQueries
	n, fast := 0, false
	if readErr == nil {
		arena = arenaPool.Get().(*batchArena)
		if req, n, fast = arena.decode(buf.Bytes(), max); !fast {
			n = declinedCount(buf.Bytes(), max)
		}
		if !fast || n > max {
			arena.release()
			arena = nil
		}
	}
	if !fast && n <= max {
		if !s.decodeJSON(w, r, &replay{b: buf.Bytes(), err: readErr}, &req) {
			return req, nil, false
		}
		n = len(req.Queries)
	}
	if n > max {
		// Same policy split as the body cap: a well-formed batch over the
		// work limit is a 413 naming the limit, not a 400.
		s.env.note(r, rejectedBatch413)
		writeError(w, r, http.StatusRequestEntityTooLarge,
			"batch of %d queries exceeds the %d-query limit", n, max)
		return req, nil, false
	}
	return req, arena, true
}

// decodeOnePass reads one request body under the envelope's byte cap and
// decodes it with fast — decodeQuery or decodeRegister — or, when fast
// declines or the read failed, with the reference over the same bytes and
// read error. ok=false means the response was written.
func decodeOnePass[T any](s *Server, w http.ResponseWriter, r *http.Request, fast func(body []byte) (T, bool)) (req T, ok bool) {
	buf, readErr := s.readBody(w, r)
	defer putBody(buf)
	if readErr == nil {
		if req, ok = fast(buf.Bytes()); ok {
			return req, true
		}
	}
	return req, s.decodeJSON(w, r, &replay{b: buf.Bytes(), err: readErr}, &req)
}

// readBody reads a request body under the envelope's byte cap into a pooled
// buffer, which the caller hands back to putBody once nothing refers to it.
// A body that declares its length within the cap is read into a buffer grown
// once to that length (and the MinRead ReadFrom keeps free at the end), not
// doubled up to it; a declared length over the cap grows nothing and is
// refused by the cap as it is read.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	limit := s.env.limits.MaxBodyBytes
	if n := r.ContentLength; n > 0 && n <= limit {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf, err
}

func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		buf.Reset()
		bodyPool.Put(buf)
	}
}

// declinedCount is the batch cap for a body the one-pass decoder declined:
// how many queries the reference decoder would return for it, when that is
// more than max, found without holding any of them. It is encoding/json over
// BatchRequest's own shape with the queries swapped for zero-sized elements,
// so keys, duplicates, nulls and unknown fields mean what they mean to the
// reference. A result of at most max (0 for a body the reference refuses)
// decides nothing: the reference runs next and has the last word.
func declinedCount(body []byte, max int) int {
	if bytes.Count(body, []byte{','})+1 <= max {
		return 0 // at most one query per comma, plus one
	}
	var shape struct {
		Dataset     string       `json:"dataset"`
		Queries     []queryShape `json:"queries"`
		Parallelism int          `json:"parallelism,omitempty"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(&shape) != nil {
		return 0
	}
	return len(shape.Queries)
}

// queryShape accepts exactly the JSON values encoding/json decodes into a
// []byte and keeps nothing of them.
type queryShape struct{}

func (*queryShape) UnmarshalJSON(b []byte) error {
	// null and a short string without escapes (it is its own content) are
	// checked here, on the stack; anything else by the reference, one
	// element at a time.
	var scratch [256]byte
	switch n := len(b); {
	case string(b) == "null":
		return nil
	case n >= 2 && b[0] == '"' && bytes.IndexByte(b, '\\') < 0 && base64.StdEncoding.DecodedLen(n-2) <= len(scratch):
		_, err := base64.StdEncoding.Decode(scratch[:], b[1:n-1])
		return err
	}
	var q []byte
	return json.Unmarshal(b, &q)
}

// replay serves bytes already read from a request body and then the error
// that read ended with, so the reference decoder sees exactly the stream
// it would have read itself — including a body cut off at the byte cap.
type replay struct {
	b   []byte
	err error // nil = the body ended cleanly
}

func (p *replay) Read(dst []byte) (int, error) {
	if len(p.b) == 0 {
		if p.err != nil {
			return 0, p.err
		}
		return 0, io.EOF
	}
	n := copy(dst, p.b)
	p.b = p.b[n:]
	return n, nil
}

// batchArena holds one decoded batch: its query headers, and the decoded
// bytes of every query back to back, each query a slice of them capped at
// its own length.
//
// A pooled arena belongs to one request, from decodeBatchBody until
// handleQueryBatch releases it once the ask has returned: nothing reads the
// queries after that, since the ask runs on the request's goroutine, every
// dataset's AskBatch joins its workers before it returns, and the answer
// cache copies a query's bytes into its key. The body buffer is never an
// arena: the queries are decoded out of it, so it goes back to bodyPool as
// soon as the request is decoded.
type batchArena struct {
	heads   [][]byte
	data    []byte
	dataset string // the dataset id decoded last, kept while bodies repeat it
}

var arenaPool = sync.Pool{New: func() any { return new(batchArena) }}

// release hands a back to arenaPool; a nil arena (the body was declined) is
// nothing to hand back. Like a body buffer, an arena grown past
// maxPooledBody, or past the default batch cap's headers, is left to the
// collector.
func (a *batchArena) release() {
	if a != nil && cap(a.data) <= maxPooledBody && cap(a.heads) <= DefaultMaxBatchQueries {
		arenaPool.Put(a)
	}
}

// decode is the one-pass decoder. ok=false declines the body. n is the
// number of queries it carries; when n > max nothing was decoded and req is
// empty. The queries are decoded into a, which is grown to fit, and stay
// valid until a decodes another body.
func (a *batchArena) decode(body []byte, max int) (req BatchRequest, n int, ok bool) {
	// A body has at most one query per comma, plus one. Only a body that
	// could exceed the cap pays for a second walk: the first counts and
	// validates, decoding every query over one scratch buffer, so a refusal
	// costs no memory that grows with the batch.
	n = bytes.Count(body, []byte{','}) + 1
	if n > max {
		count := wireWalk{b: body}
		if !count.batch() {
			return BatchRequest{}, 0, false
		}
		if n = count.n; n > max {
			return BatchRequest{}, n, true
		}
	}
	if need := base64.StdEncoding.DecodedLen(len(body)); cap(a.data) < need {
		a.data = make([]byte, need)
	}
	if a.heads == nil || cap(a.heads) < n {
		// Non-nil even for n = 0: [] is an empty slice to the reference.
		a.heads = make([][]byte, 0, n)
	}
	w := wireWalk{b: body, keep: true, heads: a.heads, dst: a.data[:cap(a.data)], last: a.dataset}
	if !w.batch() {
		return BatchRequest{}, 0, false
	}
	a.dataset = w.req.Dataset
	return w.req, w.n, true
}

// wireWalk is the one-pass decoders' cursor over a body; the fields after
// i are the batch decoder's.
type wireWalk struct {
	b []byte
	i int

	req   BatchRequest
	n     int      // queries seen
	keep  bool     // false: count and validate only
	heads [][]byte // keep: room for a header per query in b
	dst   []byte   // keep: every query back to back; else: one query's scratch
	off   int      // bytes of dst handed out
	last  string   // the arena's last dataset id, reused when b repeats it
}

// ws skips JSON whitespace and returns the byte at the cursor (0 at the
// end of the body, which no caller accepts).
func (w *wireWalk) ws() byte {
	for ; w.i < len(w.b); w.i++ {
		switch w.b[w.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return w.b[w.i]
		}
	}
	return 0
}

// byteClass is the one table both scans read. A byte of the std-base64
// alphabet maps to its sextet (0–63), any other byte that stands for itself
// inside a JSON string — printable ASCII other than the quote and the
// backslash — to plainByte, and everything else to stopByte. Every alphabet
// byte is plain, so four bytes that all map below 64 are both a whole
// quantum and four bytes of string content.
var byteClass = func() (t [256]byte) {
	for c := range t {
		t[c] = stopByte
		if c >= 0x20 && c < 0x80 && c != '"' && c != '\\' {
			t[c] = plainByte
		}
	}
	for i, c := range "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/" {
		t[c] = byte(i)
	}
	return t
}()

const (
	plainByte = 0x40
	stopByte  = 0x80
)

// str reads a string of plain bytes — no escape, nothing the reference
// would unquote into something else — and returns them without the quotes.
func (w *wireWalk) str() ([]byte, bool) {
	if w.ws() != '"' {
		return nil, false
	}
	start := w.i + 1
	i := start
	for i < len(w.b) && byteClass[w.b[i]] < stopByte {
		i++
	}
	if i == len(w.b) || w.b[i] != '"' {
		return nil, false
	}
	w.i = i + 1
	return w.b[start:i], true
}

// base64Str reads a std-base64 string into dst and returns the decoded
// length. dst must have room for everything after the cursor decoded. Only
// the canonical form — whole quanta, then the closing quote right after the
// last one or after an xx== / xxx= tail — is read, by quotedBase64 in one
// pass; anything else declines the body to encoding/json.
func (w *wireWalk) base64Str(dst []byte) (int, bool) {
	if w.ws() != '"' {
		return 0, false
	}
	n, end, ok := quotedBase64(dst, w.b[w.i+1:])
	if ok {
		w.i += end + 2
	}
	return n, ok
}

// quotedBase64 decodes the content of a JSON string, b starting just after
// its opening quote, when that content is canonical std base64: n bytes
// written to dst, end the index of the closing quote. ok=false means it is
// not — an escape, a byte outside the alphabet, no padding or padding
// anywhere but in the last quantum — and dst holds garbage. It accepts only
// what base64.StdEncoding.Decode accepts and decodes it to the same bytes
// (FuzzStdBase64): like that decoder it ignores the unused low bits of a
// padded quantum. dst needs room for 3 bytes per 4 of b.
func quotedBase64(dst, b []byte) (n, end int, ok bool) {
	i := 0
	for ; i+4 <= len(b); i += 4 {
		s0, s1, s2, s3 := byteClass[b[i]], byteClass[b[i+1]], byteClass[b[i+2]], byteClass[b[i+3]]
		if s0|s1|s2|s3 >= 64 {
			break
		}
		d := dst[n : n+3]
		d[0], d[1], d[2] = s0<<2|s1>>4, s1<<4|s2>>2, s2<<6|s3
		n += 3
	}
	if i < len(b) && b[i] == '"' {
		return n, i, true
	}
	// An xx== or xxx= quantum, then the closing quote.
	if i+4 >= len(b) || b[i+4] != '"' || b[i+3] != '=' {
		return 0, 0, false
	}
	s0, s1, s2 := byteClass[b[i]], byteClass[b[i+1]], byteClass[b[i+2]]
	switch {
	case s0|s1 >= 64:
		return 0, 0, false
	case b[i+2] == '=':
		dst[n] = s0<<2 | s1>>4
		return n + 1, i + 4, true
	case s2 < 64:
		d := dst[n : n+2]
		d[0], d[1] = s0<<2|s1>>4, s1<<4|s2>>2
		return n + 2, i + 4, true
	}
	return 0, 0, false
}

// quanta decodes b, pairs of quanta of the std-base64 alphabet, into dst, 3
// bytes per 4 of b, and reports whether every byte of b was of the
// alphabet. It is quotedBase64's loop two quanta a step, for a run of
// megabytes: the six bytes of a pair are stored as a word and a half-word.
func quanta(dst, b []byte) bool {
	for i, n := 0, 0; i+8 <= len(b); i, n = i+8, n+6 {
		c := b[i : i+8 : i+8]
		s0, s1, s2, s3 := byteClass[c[0]], byteClass[c[1]], byteClass[c[2]], byteClass[c[3]]
		s4, s5, s6, s7 := byteClass[c[4]], byteClass[c[5]], byteClass[c[6]], byteClass[c[7]]
		if s0|s1|s2|s3|s4|s5|s6|s7 >= 64 {
			return false
		}
		x := uint64(s0)<<42 | uint64(s1)<<36 | uint64(s2)<<30 | uint64(s3)<<24 |
			uint64(s4)<<18 | uint64(s5)<<12 | uint64(s6)<<6 | uint64(s7)
		d := dst[n : n+6 : n+6]
		binary.BigEndian.PutUint32(d, uint32(x>>16))
		binary.BigEndian.PutUint16(d[4:], uint16(x))
	}
	return true
}

// base64Data reads a std-base64 string on quotedBase64's terms into an
// allocation of its own, its pairs of quanta decoded in k parts: the closing
// quote is found first (no alphabet byte is a quote, so on an accepted
// string it is the first one), the pairs of quanta before the last quantum
// are cut into k runs that each decode into their own stretch of the result
// (quanta), and quotedBase64 reads what is left — one or two quanta, the
// last padded or not — and the quote. So it accepts exactly what
// quotedBase64 accepts, and decodes it to the same bytes, at any k.
func (w *wireWalk) base64Data(k int) ([]byte, bool) {
	if w.ws() != '"' {
		return nil, false
	}
	b := w.b[w.i+1:]
	end := bytes.IndexByte(b, '"')
	if end < 0 {
		return nil, false
	}
	m := max(0, end/4-1) / 2 // the pairs of quanta before the last quantum
	dst := make([]byte, end/4*3)
	k = max(1, min(k, m))
	if !parts.Fold(k, base64Run{dst: dst[:6*m], src: b[:8*m], k: k}, decodeQuanta, both) {
		return nil, false
	}
	n, _, ok := quotedBase64(dst[6*m:], b[8*m:end+1])
	if !ok {
		return nil, false
	}
	w.i += end + 2
	return dst[:6*m+n], true
}

// base64Run is the run of pairs of quanta base64Data decodes in k parts.
type base64Run struct {
	dst, src []byte
	k        int
}

// decodeQuanta decodes part j of r's pairs of quanta into its stretch of
// r.dst and reports whether every byte of them was of the alphabet.
func decodeQuanta(r base64Run, j int) bool {
	q := len(r.src) / 8
	a, b := parts.Cut(q, r.k, j), parts.Cut(q, r.k, j+1)
	return quanta(r.dst[6*a:6*b], r.src[8*a:8*b])
}

func both(a, b bool) bool { return a && b }

// object walks the top-level object up to its closing brace; like
// json.Decoder, it does not look at what follows. field reads the value of
// each key and returns false to decline — for a key it does not know, or one
// it has already seen.
func (w *wireWalk) object(field func(key []byte) bool) bool {
	if w.ws() != '{' {
		return false
	}
	w.i++
	if w.ws() == '}' {
		return true
	}
	for {
		key, ok := w.str()
		if !ok || w.ws() != ':' {
			return false
		}
		w.i++
		if !field(key) {
			return false
		}
		if more, ok := w.next('}'); !more {
			return ok
		}
	}
}

// batch walks a batch request's object.
func (w *wireWalk) batch() bool {
	var seenDataset, seenQueries, seenParallelism bool
	return w.object(func(key []byte) bool {
		switch string(key) {
		case "dataset":
			v, ok := w.str()
			if !ok || seenDataset {
				return false
			}
			seenDataset, w.req.Dataset = true, w.last
			if string(v) != w.last {
				w.req.Dataset = string(v)
			}
		case "queries":
			if seenQueries || !w.queries() {
				return false
			}
			seenQueries = true
		case "parallelism":
			if seenParallelism || !w.integer() {
				return false
			}
			seenParallelism = true
		default:
			return false
		}
		return true
	})
}

// decodeRegister is the one-pass decoder of a registration body: the
// canonical shape
//
//	{"id":"…","scheme":"…","data":"<std-base64>"}
//
// with the keys in any order and JSON whitespace between tokens, declined on
// the terms a batch body is (the reference decodes the rest, so a decline
// changes nothing a client sees). The data is decoded into an allocation of
// its own — the body's buffer goes back to the pool — in parts for a large
// body (base64Data).
func decodeRegister(body []byte) (req RegisterRequest, ok bool) {
	return decodeRegisterParts(body, parts.For(len(body)))
}

// decodeRegisterParts is decodeRegister with the data decoded in k parts.
func decodeRegisterParts(body []byte, k int) (req RegisterRequest, ok bool) {
	w := wireWalk{b: body}
	var seenID, seenScheme, seenData bool
	ok = w.object(func(key []byte) bool {
		if string(key) == "data" && !seenData {
			data, ok := w.base64Data(k)
			seenData, req.Data = true, data
			return ok
		}
		v, ok := w.str()
		if !ok {
			return false
		}
		switch {
		case string(key) == "id" && !seenID:
			seenID, req.ID = true, string(v)
		case string(key) == "scheme" && !seenScheme:
			seenScheme, req.Scheme = true, string(v)
		default:
			return false
		}
		return true
	})
	if !ok {
		return RegisterRequest{}, false
	}
	return req, true
}

// decodeQuery is the one-pass decoder of a single-query body: the canonical
// shape
//
//	{"dataset":"…","query":"<std-base64>"}
//
// declined on the terms a batch body is. The query is decoded by the batch
// queries' kernel into an allocation of its own, never the pooled body:
// the body goes back to the pool before the ask.
func decodeQuery(body []byte) (req QueryRequest, ok bool) {
	w := wireWalk{b: body}
	var seenDataset, seenQuery bool
	ok = w.object(func(key []byte) bool {
		switch {
		case string(key) == "dataset" && !seenDataset:
			v, ok := w.str()
			seenDataset, req.Dataset = true, string(v)
			return ok
		case string(key) == "query" && !seenQuery:
			dst := make([]byte, base64.StdEncoding.DecodedLen(len(body)-w.i))
			n, ok := w.base64Str(dst)
			seenQuery, req.Query = true, dst[:n:n]
			return ok
		}
		return false
	})
	if !ok {
		return QueryRequest{}, false
	}
	return req, true
}

// next consumes the comma before another element, or the closing byte of
// the object or array; ok=false is anything else.
func (w *wireWalk) next(closing byte) (more, ok bool) {
	c := w.ws()
	w.i++
	return c == ',', c == ',' || c == closing
}

// queries walks the array of base64 strings.
func (w *wireWalk) queries() bool {
	if w.ws() != '[' {
		return false
	}
	w.i++
	if w.keep {
		w.req.Queries = w.heads[:0]
	}
	if w.ws() == ']' {
		w.i++
		return true
	}
	for {
		if !w.query() {
			return false
		}
		if more, ok := w.next(']'); !more {
			return ok
		}
	}
}

// query reads one query: decoded into the arena when the walk keeps them,
// else read and checked over one scratch buffer.
func (w *wireWalk) query() bool {
	w.n++
	if w.keep {
		m, ok := w.base64Str(w.dst[w.off:])
		if ok {
			end := w.off + m
			w.req.Queries = append(w.req.Queries, w.dst[w.off:end:end])
			w.off = end
		}
		return ok
	}
	src, ok := w.str()
	if !ok {
		return false
	}
	if need := base64.StdEncoding.DecodedLen(len(src)); need > len(w.dst) {
		w.dst = make([]byte, need)
	}
	_, err := base64.StdEncoding.Decode(w.dst, src)
	return err == nil
}

// integer reads a JSON integer literal: -?(0|[1-9][0-9]*). A fraction or
// exponent leaves a byte object's delimiter check refuses.
func (w *wireWalk) integer() bool {
	w.ws()
	start := w.i
	if w.i < len(w.b) && w.b[w.i] == '-' {
		w.i++
	}
	digits := w.i
	for w.i < len(w.b) && w.b[w.i] >= '0' && w.b[w.i] <= '9' {
		w.i++
	}
	if w.i == digits || (w.b[digits] == '0' && w.i > digits+1) {
		return false
	}
	v, err := strconv.Atoi(string(w.b[start:w.i]))
	w.req.Parallelism = v
	return err == nil
}
