package server

// Request tracing: every request gets an id — the client's X-Request-ID
// when it sent a plausible one, a generated one otherwise — echoed in the
// response header, read back from the request header for the error bodies,
// and attached to the structured request / slow-query log lines. The
// middleware also hosts GET /metrics' content type; the exposition itself
// is rendered by the process-wide obs.Default registry.

import (
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pitract/internal/obs"
)

// RequestIDHeader is the header the tracing middleware reads and echoes.
const RequestIDHeader = "X-Request-ID"

// maxInboundRequestID bounds accepted client-supplied ids; longer (or
// non-printable) values are replaced with a generated id rather than
// echoed, so a hostile header cannot ride into logs or error bodies.
const maxInboundRequestID = 128

// clientRequestID returns the client-supplied request id and whether there
// is one: the X-Request-ID header when validInboundID accepts it — the same
// test the middleware applies before echoing it. Error bodies include the
// id only then, a client correlating its own trace, while generated ids
// travel in the response header alone, keeping byte-stable error bodies for
// clients that sent no id.
func clientRequestID(r *http.Request) (string, bool) {
	if r == nil {
		return "", false
	}
	id := r.Header.Get(RequestIDHeader)
	return id, validInboundID(id)
}

// validInboundID reports whether a client-supplied id is safe to echo:
// non-empty, bounded, printable ASCII with no spaces.
func validInboundID(s string) bool {
	if s == "" || len(s) > maxInboundRequestID {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < '!' || c > '~' {
			return false
		}
	}
	return true
}

// Generated ids are <process-prefix>-<counter>: the prefix is random per
// process so ids from restarts never collide, the counter keeps per-request
// generation down to one atomic add.
var (
	idPrefixOnce sync.Once
	idPrefix     string
	idCounter    atomic.Uint64
)

func newRequestID() string {
	idPrefixOnce.Do(func() {
		var b [6]byte
		if _, err := rand.Read(b[:]); err != nil {
			// crypto/rand failing is a broken platform; ids only need
			// uniqueness, so fall back to a fixed prefix.
			idPrefix = "pitract"
			return
		}
		idPrefix = hex.EncodeToString(b[:])
	})
	var buf [48]byte // 12 hex digits, '-', up to 20 decimal ones
	b := append(append(buf[:0], idPrefix...), '-')
	return string(strconv.AppendUint(b, idCounter.Add(1), 10))
}

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(p)
}

// withObservability wraps next with the tracing middleware: request-ID
// assignment + header echo always; per-request structured logging and the
// slow-query log only when a logger is installed, so the unlogged path
// stays one header write. The request itself is passed on unchanged: the
// error bodies read a client's id from its header (clientRequestID).
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, fromClient := clientRequestID(r)
		if !fromClient {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)

		if s.logger == nil {
			next.ServeHTTP(w, r)
			return
		}
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		attrs := []slog.Attr{
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Duration("elapsed", elapsed),
		}
		s.logger.LogAttrs(r.Context(), slog.LevelDebug, "request", attrs...)
		if s.slowQuery > 0 && elapsed >= s.slowQuery {
			s.logger.LogAttrs(r.Context(), slog.LevelWarn, "slow request",
				append(attrs, slog.Duration("threshold", s.slowQuery))...)
		}
	})
}

// handleMetrics serves GET /metrics: the Prometheus text exposition of the
// process-wide obs.Default registry. It is never metered by the serving
// envelope — observability must survive saturation.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.Default.WritePrometheus(w)
}
