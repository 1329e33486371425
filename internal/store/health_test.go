package store

// The breaker state-machine suite: windowed failure counting with exact
// edge behavior, the half-open single-probe contract, exponential
// backoff, quarantine marking, and concurrent trippers under -race. The
// clock is the breaker's unexported `now` seam, so every transition is
// deterministic. A fuzz target pins that quarantine file naming can
// never escape the data directory, whatever the dataset id.

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pitract/internal/core"
)

// fakeClock drives a breaker deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testBreaker(cfg BreakerConfig) (*Breaker, *fakeClock) {
	b := NewBreaker(cfg)
	clk := newFakeClock()
	b.now = clk.Now
	return b, clk
}

var breakerCfg = BreakerConfig{
	Window:        time.Second,
	DegradedAfter: 2,
	OpenAfter:     4,
	Backoff:       100 * time.Millisecond,
	MaxBackoff:    400 * time.Millisecond,
}

func TestBreakerConfigDefaults(t *testing.T) {
	c := BreakerConfig{}.withDefaults()
	if c.Window <= 0 || c.DegradedAfter <= 0 || c.OpenAfter <= 0 || c.Backoff <= 0 || c.MaxBackoff <= 0 {
		t.Fatalf("zero config did not take defaults: %+v", c)
	}
	// OpenAfter below DegradedAfter is contradictory; it clamps up so the
	// state machine can still reach Open.
	c = BreakerConfig{DegradedAfter: 5, OpenAfter: 2}.withDefaults()
	if c.OpenAfter != 5 {
		t.Fatalf("OpenAfter = %d, want clamped to DegradedAfter = 5", c.OpenAfter)
	}
}

// TestBreakerLifecycle walks the whole machine: healthy → degraded →
// open → refused → half-open probe → healed, checking each decision's
// flags along the way.
func TestBreakerLifecycle(t *testing.T) {
	b, clk := testBreaker(breakerCfg)

	if dec := b.Allow(); !dec.Admit || dec.Probe || dec.State != HealthHealthy {
		t.Fatalf("healthy decision %+v", dec)
	}

	b.OnFailure(false)
	if st := b.State(); st != HealthHealthy {
		t.Fatalf("one failure moved the state to %v", st)
	}
	b.OnFailure(false)
	// Degraded is a warning: the request is admitted like a healthy one.
	if dec := b.Allow(); !dec.Admit || dec.Probe || dec.State != HealthDegraded {
		t.Fatalf("degraded decision %+v", dec)
	}

	b.OnFailure(false)
	b.OnFailure(false)
	if st := b.State(); st != HealthOpen {
		t.Fatalf("state after %d failures = %v, want open", breakerCfg.OpenAfter, st)
	}

	// Open within the backoff: refused with the remaining wait.
	clk.Advance(30 * time.Millisecond)
	dec := b.Allow()
	if dec.Admit {
		t.Fatalf("open breaker admitted a request: %+v", dec)
	}
	if want := 70 * time.Millisecond; dec.RetryAfter != want {
		t.Fatalf("RetryAfter = %v, want the remaining backoff %v", dec.RetryAfter, want)
	}

	// Backoff elapsed: exactly one probe is admitted; concurrent arrivals
	// are refused with a Retry-After (the answer path is reserved for the
	// probe).
	clk.Advance(70 * time.Millisecond)
	probe := b.Allow()
	if !probe.Admit || !probe.Probe {
		t.Fatalf("post-backoff decision %+v, want the probe", probe)
	}
	during := b.Allow()
	if during.Admit || during.Probe || during.State != HealthOpen || during.RetryAfter != breakerCfg.Backoff {
		t.Fatalf("decision during probe %+v, want refused with RetryAfter %v", during, breakerCfg.Backoff)
	}

	// The probe fails: still open, backoff doubled.
	b.OnFailure(true)
	if dec := b.Allow(); dec.Admit {
		t.Fatalf("breaker admitted right after a failed probe: %+v", dec)
	}
	clk.Advance(199 * time.Millisecond)
	if dec := b.Allow(); dec.Admit {
		t.Fatalf("breaker admitted before the doubled backoff elapsed: %+v", dec)
	}
	clk.Advance(time.Millisecond)
	if dec := b.Allow(); !dec.Probe {
		t.Fatalf("decision after the doubled backoff %+v, want a probe", dec)
	}

	// The probe succeeds: healthy, failures cleared, backoff reset.
	b.OnSuccess(true)
	if st := b.State(); st != HealthHealthy {
		t.Fatalf("state after a successful probe = %v", st)
	}
	b.OnFailure(false)
	b.OnFailure(false)
	if st := b.State(); st != HealthDegraded {
		t.Fatalf("failure history survived the heal: state %v after 2 fresh failures", st)
	}
}

// TestBreakerWindowEdges pins the sliding window's boundary behavior: a
// failure exactly Window old no longer counts, one a nanosecond younger
// still does, and Degraded ages back to Healthy as the window empties.
func TestBreakerWindowEdges(t *testing.T) {
	b, clk := testBreaker(breakerCfg)

	b.OnFailure(false)
	b.OnFailure(false)
	if st := b.State(); st != HealthDegraded {
		t.Fatalf("state after 2 failures = %v", st)
	}

	// One nanosecond short of the window: both failures still count.
	clk.Advance(breakerCfg.Window - time.Nanosecond)
	if st := b.State(); st != HealthDegraded {
		t.Fatalf("failures aged out %v early", time.Nanosecond)
	}
	// At exactly Window the failures drop and Degraded ages to Healthy.
	clk.Advance(time.Nanosecond)
	if st := b.State(); st != HealthHealthy {
		t.Fatalf("state at the window edge = %v, want healthy", st)
	}

	// Aged-out failures must not stack with fresh ones toward Open.
	b.OnFailure(false)
	b.OnFailure(false)
	b.OnFailure(false)
	clk.Advance(breakerCfg.Window + time.Millisecond)
	b.OnFailure(false)
	if st := b.State(); st != HealthHealthy {
		t.Fatalf("stale failures still count: state %v after 1 in-window failure", st)
	}
}

// TestBreakerOpenNeverAgesOut pins that Open is sticky: only a probe
// outcome moves it, no matter how long the breaker sits idle.
func TestBreakerOpenNeverAgesOut(t *testing.T) {
	b, clk := testBreaker(breakerCfg)
	for i := 0; i < breakerCfg.OpenAfter; i++ {
		b.OnFailure(false)
	}
	clk.Advance(10 * breakerCfg.Window)
	if st := b.State(); st != HealthOpen {
		t.Fatalf("open breaker aged out to %v without a probe", st)
	}
	// A pre-trip straggler's success proves nothing about the probed path.
	b.OnSuccess(false)
	if st := b.State(); st != HealthOpen {
		t.Fatalf("straggler success closed the breaker: %v", st)
	}
}

// TestBreakerProbeSlotReissue pins the abandoned-probe guard: a probe
// that never reports back (its worker was abandoned past a deadline)
// releases the slot after the probe timeout instead of wedging the
// breaker open forever.
func TestBreakerProbeSlotReissue(t *testing.T) {
	b, clk := testBreaker(breakerCfg)
	for i := 0; i < breakerCfg.OpenAfter; i++ {
		b.OnFailure(false)
	}
	clk.Advance(breakerCfg.Backoff)
	if dec := b.Allow(); !dec.Probe {
		t.Fatalf("first post-backoff decision %+v, want a probe", dec)
	}
	// The probe never calls OnSuccess/OnFailure. Within the timeout the
	// slot stays reserved...
	clk.Advance(500 * time.Millisecond)
	if dec := b.Allow(); dec.Probe {
		t.Fatal("probe slot double-issued while the first probe was live")
	}
	// ...and after it, a fresh probe is issued.
	clk.Advance(600 * time.Millisecond)
	if dec := b.Allow(); !dec.Probe {
		t.Fatalf("probe slot not re-issued after the timeout: %+v", dec)
	}
}

// TestBreakerBackoffCap pins the exponential backoff's ceiling.
func TestBreakerBackoffCap(t *testing.T) {
	b, clk := testBreaker(breakerCfg)
	for i := 0; i < breakerCfg.OpenAfter; i++ {
		b.OnFailure(false)
	}
	// Fail enough probes to overshoot MaxBackoff: 100 → 200 → 400 → 400.
	for i := 0; i < 4; i++ {
		clk.Advance(breakerCfg.MaxBackoff)
		if dec := b.Allow(); !dec.Probe {
			t.Fatalf("probe %d not issued: %+v", i, dec)
		}
		b.OnFailure(true)
	}
	clk.Advance(breakerCfg.MaxBackoff - time.Millisecond)
	if dec := b.Allow(); dec.Admit {
		t.Fatalf("admitted before the capped backoff elapsed: %+v", dec)
	}
	clk.Advance(time.Millisecond)
	if dec := b.Allow(); !dec.Probe {
		t.Fatalf("probe not issued at the capped backoff: %+v", dec)
	}
}

// TestBreakerQuarantineHeals pins the quarantine leg: marked datasets
// report quarantined until any successful answer heals them.
func TestBreakerQuarantineHeals(t *testing.T) {
	b, _ := testBreaker(breakerCfg)
	b.MarkQuarantined()
	if st := b.State(); st != HealthQuarantined {
		t.Fatalf("state after MarkQuarantined = %v", st)
	}
	if dec := b.Allow(); !dec.Admit || dec.Probe {
		t.Fatalf("quarantined decision %+v, want plain admission", dec)
	}
	b.OnSuccess(false)
	if st := b.State(); st != HealthHealthy {
		t.Fatalf("first success did not heal the quarantine: %v", st)
	}
}

// TestBreakerConcurrentTrippers hammers one breaker from many
// goroutines under -race: every interleaving must leave the machine in
// a legal state with the probe-slot invariant intact (at most one live
// probe between reports).
func TestBreakerConcurrentTrippers(t *testing.T) {
	b := NewBreaker(BreakerConfig{
		Window:        50 * time.Millisecond,
		DegradedAfter: 2,
		OpenAfter:     4,
		Backoff:       time.Millisecond,
		MaxBackoff:    4 * time.Millisecond,
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				dec := b.Allow()
				if !dec.Admit {
					continue
				}
				if (i+g)%3 == 0 {
					b.OnFailure(dec.Probe)
				} else {
					b.OnSuccess(dec.Probe)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := b.State(); st < HealthHealthy || st > HealthQuarantined {
		t.Fatalf("breaker left in impossible state %d", st)
	}
}

// TestRegistryBreakerPlumbing pins the registry side: one breaker per
// catalog entry (stable across calls, none for an id without one, the same
// one the answer path is handed), config applied to new breakers, reset on
// SetBreakerConfig, and HealthStates keyed by the completed datasets.
func TestRegistryBreakerPlumbing(t *testing.T) {
	reg := NewRegistry("")
	scheme := &core.Scheme{
		SchemeName: "test/health",
		Preprocess: func(d []byte) ([]byte, error) { return d, nil },
		Prepare:    core.ProbeInPlace(func(pd, q []byte) (bool, error) { return true, nil }),
	}
	if b := reg.Breaker("a"); b != nil {
		t.Fatal("an id with no catalog entry has a breaker")
	}
	if _, err := reg.Register("a", scheme, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if b1, b2 := reg.Breaker("a"), reg.Breaker("a"); b1 == nil || b1 != b2 {
		t.Fatal("Breaker(id) is not stable across calls")
	}
	if _, br, ok := reg.Serving("a"); !ok || br != reg.Breaker("a") {
		t.Fatal("Serving hands the answer path a different breaker than Breaker(id)")
	}
	reg.Breaker("a").MarkQuarantined()
	reg.SetBreakerConfig(BreakerConfig{DegradedAfter: 1, OpenAfter: 1})
	if st := reg.Breaker("a").State(); st != HealthHealthy {
		t.Fatalf("SetBreakerConfig kept stale breaker state %v", st)
	}
	reg.Breaker("a").OnFailure(false)
	if st := reg.Breaker("a").State(); st != HealthOpen {
		t.Fatalf("new config not applied: state %v after 1 failure with OpenAfter=1", st)
	}

	// A failed registration leaves no breaker behind.
	bad := *scheme
	bad.Preprocess = func([]byte) ([]byte, error) { return nil, errors.New("hostile data") }
	if _, err := reg.Register("bad", &bad, []byte{1}); err == nil {
		t.Fatal("registration with a failing Preprocess succeeded")
	}
	if b := reg.Breaker("bad"); b != nil {
		t.Fatal("a failed registration left a breaker behind")
	}

	if _, err := reg.Register("ds", scheme, []byte{1}); err != nil {
		t.Fatal(err)
	}
	states := reg.HealthStates()
	if len(states) != 2 || states["ds"] != HealthHealthy || states["a"] != HealthOpen {
		t.Fatalf("HealthStates = %v, want {a: open, ds: healthy}", states)
	}
	reg.NoteQuarantine("ds")
	if got := reg.QuarantineCount(); got != 1 {
		t.Fatalf("QuarantineCount = %d, want 1", got)
	}
	if st := reg.HealthStates()["ds"]; st != HealthQuarantined {
		t.Fatalf("NoteQuarantine did not mark the breaker: %v", st)
	}
}

func TestHealthStateStrings(t *testing.T) {
	for st, want := range map[HealthState]string{
		HealthHealthy: "healthy", HealthDegraded: "degraded",
		HealthOpen: "open", HealthQuarantined: "quarantined",
		HealthState(42): "HealthState(42)",
	} {
		if got := st.String(); got != want {
			t.Fatalf("HealthState(%d).String() = %q, want %q", int32(st), got, want)
		}
	}
}

// FuzzQuarantinePathContainment pins that quarantine naming composed
// with the registry's path escaping can never leave the data directory:
// for any dataset id, the quarantined snapshot and log names are plain
// files directly inside dir.
func FuzzQuarantinePathContainment(f *testing.F) {
	for _, id := range []string{
		"plain", "../escape", "..", ".", "a/b/c", `..\..\win`,
		"%2e%2e%2fdouble-encoded", "id with spaces", "ends-with-dot.",
		"\x00nul", "🦔", strings.Repeat("../", 40) + "etc/passwd",
	} {
		f.Add(id)
	}
	dir := filepath.Join("data", "dir")
	f.Fuzz(func(t *testing.T, id string) {
		for _, artifact := range []string{DatasetPath(dir, id), LogPath(dir, id)} {
			q := QuarantinePath(artifact)
			if filepath.Dir(q) != dir {
				t.Fatalf("id %q: quarantine path %q escapes %q", id, q, dir)
			}
			// The name must be a single path element (no separators, not a
			// traversal component) — "..%2Fetc" is fine, it is a literal
			// filename, but "../etc" or "a/b" would escape.
			rel, err := filepath.Rel(dir, q)
			if err != nil || rel == ".." || rel == "." || strings.ContainsRune(rel, filepath.Separator) || strings.ContainsRune(rel, '/') {
				t.Fatalf("id %q: quarantine path %q is not a plain file under %q (rel %q, err %v)", id, q, dir, rel, err)
			}
		}
	})
}
