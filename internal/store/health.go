package store

// Per-dataset health tracking: a windowed-failure circuit breaker that
// moves a dataset healthy → degraded → open as serve-path failures
// accumulate, refuses fast while open, and heals through single
// half-open probes with exponential backoff. The breaker never guesses
// at causes — the server classifies each answer outcome (deadline
// expiry, success) and reports it via OnSuccess / OnFailure; the breaker
// only decides whether the next request should pay the possibly-failing
// answer path or be refused outright with a Retry-After hint.

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"pitract/internal/obs"
)

var (
	obsBreakerTrips = obs.Default.Counter("pitract_breaker_trips_total",
		"Datasets whose circuit breaker tripped open.")
	obsQuarantines = obs.Default.Counter("pitract_quarantines_total",
		"Corrupt artifacts renamed aside for forensics and rebuilt from source.")
)

// HealthState is a dataset's serve-path health as reported by /healthz.
type HealthState int32

const (
	// Healthy: the answer path is serving normally.
	HealthHealthy HealthState = iota
	// Degraded: recent failures crossed the soft threshold — a warning;
	// requests are still admitted and answered exactly. The state ages out
	// as the failure window empties.
	HealthDegraded
	// Open: the breaker tripped. Requests refuse fast (503 + Retry-After)
	// until the backoff elapses, then a single half-open probe retries the
	// answer path; success closes the breaker, failure doubles the backoff.
	HealthOpen
	// Quarantined: a persisted artifact failed CRC or decode and was
	// renamed aside; the dataset was rebuilt from source and the state
	// clears on the first successful answer.
	HealthQuarantined
)

func (s HealthState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthOpen:
		return "open"
	case HealthQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("HealthState(%d)", int32(s))
}

// BreakerConfig tunes one dataset's circuit breaker. The zero value
// means "use the default" for every field.
type BreakerConfig struct {
	// Window is how long a failure counts against the dataset.
	Window time.Duration
	// DegradedAfter is the windowed failure count that enters Degraded.
	DegradedAfter int
	// OpenAfter is the windowed failure count that trips the breaker.
	OpenAfter int
	// Backoff is the initial open→probe delay; each failed probe doubles
	// it up to MaxBackoff, and a successful probe resets it.
	Backoff time.Duration
	// MaxBackoff caps the exponential probe backoff.
	MaxBackoff time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 30 * time.Second
	}
	if c.DegradedAfter <= 0 {
		c.DegradedAfter = 3
	}
	if c.OpenAfter <= 0 {
		c.OpenAfter = 8
	}
	if c.Backoff <= 0 {
		c.Backoff = time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 30 * time.Second
	}
	if c.OpenAfter < c.DegradedAfter {
		c.OpenAfter = c.DegradedAfter
	}
	return c
}

// BreakerDecision is the breaker's verdict for one incoming request.
type BreakerDecision struct {
	// Admit: serve the request. False means refuse fast with RetryAfter.
	Admit bool
	// Probe: this request is the single half-open probe — its outcome
	// closes or re-opens the breaker.
	Probe bool
	// State is the health state the decision was made under.
	State HealthState
	// RetryAfter hints when the client should retry a refused request.
	RetryAfter time.Duration
}

// Breaker is one dataset's health state machine. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig
	now func() time.Time

	mu       sync.Mutex
	state    HealthState
	failures []time.Time
	openedAt time.Time
	backoff  time.Duration
	probing  bool
	probeAt  time.Time
}

// NewBreaker builds a breaker; zero-value config fields take defaults.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, now: time.Now, backoff: cfg.Backoff}
}

// probeTimeout bounds how long the single half-open probe slot stays
// reserved for a probe that never reported back (its handler panicked):
// after it, the slot is re-issued.
func (b *Breaker) probeTimeout() time.Duration {
	if b.backoff > time.Second {
		return b.backoff
	}
	return time.Second
}

// prune drops failures older than the window and ages Degraded back to
// Healthy when the window empties below the soft threshold. Open never
// ages out here — only probe outcomes move it.
func (b *Breaker) prune(now time.Time) {
	cut := now.Add(-b.cfg.Window)
	k := 0
	for _, t := range b.failures {
		if t.After(cut) {
			b.failures[k] = t
			k++
		}
	}
	b.failures = b.failures[:k]
	if b.state == HealthDegraded && len(b.failures) < b.cfg.DegradedAfter {
		b.state = HealthHealthy
	}
}

// Allow decides how the next request against this dataset is served.
func (b *Breaker) Allow() BreakerDecision {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	b.prune(now)
	switch b.state {
	case HealthOpen:
		if wait := b.openedAt.Add(b.backoff).Sub(now); wait > 0 {
			return BreakerDecision{State: HealthOpen, RetryAfter: wait}
		}
		if !b.probing || now.Sub(b.probeAt) >= b.probeTimeout() {
			b.probing = true
			b.probeAt = now
			return BreakerDecision{Admit: true, Probe: true, State: HealthOpen}
		}
		// Half-open with the probe slot taken: the answer path is reserved
		// for the probe, so everyone else is refused until it reports.
		return BreakerDecision{State: HealthOpen, RetryAfter: b.backoff}
	default:
		return BreakerDecision{Admit: true, State: b.state}
	}
}

// OnSuccess reports a successfully served request. probe must echo the
// Probe flag of the BreakerDecision the request was admitted under.
func (b *Breaker) OnSuccess(probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	switch b.state {
	case HealthOpen:
		if !probe {
			// A straggler admitted before the trip proves nothing about
			// the path the probe is testing.
			return
		}
		b.state = HealthHealthy
		b.failures = b.failures[:0]
		b.backoff = b.cfg.Backoff
	case HealthQuarantined:
		// First successful answer over the rebuilt artifact: healed.
		b.state = HealthHealthy
		b.failures = b.failures[:0]
	}
}

// OnFailure reports a health-relevant serve failure (a deadline expiry) —
// client-shaped errors such as malformed queries must not be reported here.
func (b *Breaker) OnFailure(probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if probe {
		b.probing = false
	}
	if b.state == HealthOpen {
		if probe {
			// The probe failed: stay open and back off exponentially.
			b.openedAt = now
			b.backoff *= 2
			if b.backoff > b.cfg.MaxBackoff {
				b.backoff = b.cfg.MaxBackoff
			}
		}
		return
	}
	b.failures = append(b.failures, now)
	b.prune(now)
	switch {
	case len(b.failures) >= b.cfg.OpenAfter:
		b.state = HealthOpen
		b.openedAt = now
		b.backoff = b.cfg.Backoff
		obsBreakerTrips.Inc()
	case len(b.failures) >= b.cfg.DegradedAfter:
		b.state = HealthDegraded
	}
}

// MarkQuarantined records that the dataset's persisted artifact was
// quarantined and rebuilt; the state clears on the next success.
func (b *Breaker) MarkQuarantined() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = HealthQuarantined
}

// State returns the current health state, aging out stale failures.
func (b *Breaker) State() HealthState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.prune(b.now())
	return b.state
}

// SetBreakerConfig sets the config applied to every breaker created
// after the call and resets existing ones. Set it before serving
// traffic: a request already holding a replaced breaker reports to it.
func (r *Registry) SetBreakerConfig(cfg BreakerConfig) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.breakerCfg = cfg
	for _, e := range r.entries {
		e.breaker = NewBreaker(cfg)
	}
}

// Breaker returns the circuit breaker of the dataset registered — or being
// registered — under id: the one its catalog entry was created with. An id
// with no entry has no breaker (nil).
func (r *Registry) Breaker(id string) *Breaker {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[id]; ok {
		return e.breaker
	}
	return nil
}

// HealthStates reports the health state of every completed dataset.
func (r *Registry) HealthStates() map[string]HealthState {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]HealthState{}
	for id, e := range r.entries {
		if e.settled() {
			out[id] = e.breaker.State()
		}
	}
	return out
}

// QuarantineCount reports how many artifacts this registry quarantined.
func (r *Registry) QuarantineCount() int64 { return r.quarantineCount.Load() }

// NoteQuarantine counts one quarantined artifact and marks the breaker of
// the registration it happened under (quarantineArtifact is its only caller
// outside tests; a Recover run outside any registration has no breaker).
func (r *Registry) NoteQuarantine(id string) {
	r.quarantineCount.Add(1)
	obsQuarantines.Inc()
	if b := r.Breaker(id); b != nil {
		b.MarkQuarantined()
	}
}

// QuarantinePath maps an artifact path to where quarantine moves it.
// The suffix appends to an already path-escaped filename, so hostile
// dataset ids cannot escape the data directory.
func QuarantinePath(path string) string { return path + ".quarantine" }

// quarantineArtifact renames a corrupt artifact aside for forensics and
// records the quarantine. A rename failure must not block the rebuild —
// the artifact is unreadable either way.
func (r *Registry) quarantineArtifact(fsys FS, path, id string) {
	if err := fsys.Rename(path, QuarantinePath(path)); err == nil {
		fsys.SyncDir(filepath.Dir(path))
	}
	r.NoteQuarantine(id)
}
