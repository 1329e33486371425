package server

// The batch wire path: one read of the body, one pass over it, one backing
// array for every decoded query. encoding/json scans a batch body three
// times (validate, find each value's end, decode) and allocates per query;
// for a 1024-query body that was the largest single cost of the request
// once the probes themselves were cheap.
//
// decodeBatch recognises only the canonical shape a client library emits —
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

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// bodyPool recycles the raw-body buffers of batch requests. Nothing
// references a body once it is decoded (queries are decoded into their own
// array, the dataset id is copied out), so the buffer goes back as soon as
// the handler has its BatchRequest.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody keeps one outsized request from pinning its buffer in the
// pool forever; bodies above it are left to the collector.
const maxPooledBody = 1 << 20

// decodeBatchBody reads and decodes one batch request under the envelope's
// body and batch caps. Over the batch cap only the query count is taken —
// by the one-pass decoder, or by declinedCount for a body it declines — with
// nothing decoded or allocated. ok=false means the response was written.
func (s *Server) decodeBatchBody(w http.ResponseWriter, r *http.Request) (req BatchRequest, ok bool) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	_, readErr := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.env.limits.MaxBodyBytes))
	max := s.env.limits.MaxBatchQueries
	n, fast := 0, false
	if readErr == nil {
		if req, n, fast = decodeBatch(buf.Bytes(), max); !fast {
			n = declinedCount(buf.Bytes(), max)
		}
	}
	if !fast && n <= max {
		if !s.decodeJSON(w, r, &replay{b: buf.Bytes(), err: readErr}, &req) {
			return req, false
		}
		n = len(req.Queries)
	}
	if n > max {
		// Same policy split as the body cap: a well-formed batch over the
		// work limit is a 413 naming the limit, not a 400.
		s.env.note(r, rejectedBatch413)
		writeError(w, r, http.StatusRequestEntityTooLarge,
			"batch of %d queries exceeds the %d-query limit", n, max)
		return req, false
	}
	return req, true
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

// decodeBatch is the one-pass decoder. ok=false declines the body. n is
// the number of queries it carries; when n > max nothing was decoded and
// req is empty.
//
// The decoded queries share one backing array allocated here and never
// pooled: a deadline-abandoned worker or a cache fill may still read them
// after the handler has returned.
func decodeBatch(body []byte, max int) (req BatchRequest, n int, ok bool) {
	// A body has at most one query per comma, plus one. Only a body that
	// could exceed the cap pays for a second walk: the first counts and
	// validates, decoding every query over one scratch buffer, so a refusal
	// costs no memory that grows with the batch.
	n = bytes.Count(body, []byte{','}) + 1
	if n > max {
		count := batchWalk{b: body}
		if !count.object() {
			return BatchRequest{}, 0, false
		}
		if n = count.n; n > max {
			return BatchRequest{}, n, true
		}
	}
	w := batchWalk{b: body, keep: true, bound: n,
		dst: make([]byte, base64.StdEncoding.DecodedLen(len(body)))}
	if !w.object() {
		return BatchRequest{}, 0, false
	}
	return w.req, w.n, true
}

// batchWalk is decodeBatch's cursor over the body.
type batchWalk struct {
	b []byte
	i int

	req   BatchRequest
	n     int    // queries seen
	keep  bool   // false: count and validate only
	bound int    // keep: at least the number of queries in b
	dst   []byte // keep: every query back to back; else: one query's scratch
	off   int    // bytes of dst handed out
}

// ws skips JSON whitespace and returns the byte at the cursor (0 at the
// end of the body, which no caller accepts).
func (w *batchWalk) ws() byte {
	for ; w.i < len(w.b); w.i++ {
		switch w.b[w.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return w.b[w.i]
		}
	}
	return 0
}

// plain marks the bytes that stand for themselves inside a JSON string:
// printable ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str reads a string of plain bytes — no escape, nothing the reference
// would unquote into something else — and returns them without the quotes.
func (w *batchWalk) str() ([]byte, bool) {
	if w.ws() != '"' {
		return nil, false
	}
	start := w.i + 1
	i := start
	for i < len(w.b) && plain[w.b[i]] {
		i++
	}
	if i == len(w.b) || w.b[i] != '"' {
		return nil, false
	}
	w.i = i + 1
	return w.b[start:i], true
}

// object walks the top-level object up to its closing brace; like
// json.Decoder, it does not look at what follows.
func (w *batchWalk) object() bool {
	if w.ws() != '{' {
		return false
	}
	w.i++
	var seenDataset, seenQueries, seenParallelism bool
	if w.ws() == '}' {
		return true
	}
	for {
		key, ok := w.str()
		if !ok || w.ws() != ':' {
			return false
		}
		w.i++
		switch string(key) {
		case "dataset":
			v, ok := w.str()
			if !ok || seenDataset {
				return false
			}
			seenDataset, w.req.Dataset = true, string(v)
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
		if more, ok := w.next('}'); !more {
			return ok
		}
	}
}

// next consumes the comma before another element, or the closing byte of
// the object or array; ok=false is anything else.
func (w *batchWalk) next(closing byte) (more, ok bool) {
	c := w.ws()
	w.i++
	return c == ',', c == ',' || c == closing
}

// queries walks the array of base64 strings.
func (w *batchWalk) queries() bool {
	if w.ws() != '[' {
		return false
	}
	w.i++
	if w.keep {
		w.req.Queries = make([][]byte, 0, w.bound)
	}
	if w.ws() == ']' {
		w.i++
		return true
	}
	for {
		src, ok := w.str()
		if !ok || !w.query(src) {
			return false
		}
		if more, ok := w.next(']'); !more {
			return ok
		}
	}
}

// query decodes one query with the decoder encoding/json uses. src holds
// no CR or LF (str refused them), the only bytes that decoder would skip.
func (w *batchWalk) query(src []byte) bool {
	w.n++
	if need := base64.StdEncoding.DecodedLen(len(src)); !w.keep && need > len(w.dst) {
		w.dst = make([]byte, need)
	}
	m, err := base64.StdEncoding.Decode(w.dst[w.off:], src)
	if err != nil {
		return false
	}
	if w.keep {
		end := w.off + m
		w.req.Queries = append(w.req.Queries, w.dst[w.off:end:end])
		w.off = end
	}
	return true
}

// integer reads a JSON integer literal: -?(0|[1-9][0-9]*). A fraction or
// exponent leaves a byte object's delimiter check refuses.
func (w *batchWalk) integer() bool {
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
