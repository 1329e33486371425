package harness

// X11 drives a live server through the serve-path failure modes the
// graceful-degradation layer exists for, asserting the contract in-line
// at every phase rather than rendering a table for a server that
// misbehaved:
//
//   - deadlines: a dataset whose exact path stalls past the query budget
//     answers 504, and no request overruns the budget by more than the
//     slack — an expired request never holds the serving path hostage;
//   - breakers: repeated deadline expiries trip the dataset open, an open
//     breaker refuses fast (503 + Retry-After) and turns /healthz
//     unhealthy, and once the fault clears the breaker heals through its
//     half-open probe within the configured backoff;
//   - degraded answering: a stalled dataset with a declared fallback
//     keeps serving 200s flagged "degraded": true, with every verdict
//     identical to the exact oracle;
//   - quarantine-and-heal: a snapshot corrupted at rest — behind a flaky,
//     fault-injecting read path — is renamed aside as *.quarantine, the
//     dataset rebuilt from source, and the surviving write-ahead delta
//     log replayed, ending at the exact acknowledged version.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/server"
	"pitract/internal/store"
	"pitract/internal/store/faultfs"
)

const (
	// x11Budget is the per-query wall budget the server enforces.
	x11Budget = 250 * time.Millisecond
	// x11Stall is how long a chaos-stalled exact answer parks — far past
	// the budget, so every stalled query must 504.
	x11Stall = 600 * time.Millisecond
	// x11OverBudgetSlack is the zero-hangs SLO: no 504 may arrive more
	// than this past the budget (HTTP round trip + scheduler included).
	x11OverBudgetSlack = 50 * time.Millisecond
)

// x11BreakerCfg is the chaos run's breaker tuning: two failures degrade,
// four trip, probes retry on a 200ms backoff capped at 2s.
func x11BreakerCfg() store.BreakerConfig {
	return store.BreakerConfig{
		Window:        10 * time.Second,
		DegradedAfter: 2,
		OpenAfter:     4,
		Backoff:       200 * time.Millisecond,
		MaxBackoff:    2 * time.Second,
	}
}

// x11StallScheme wraps a reachability scheme's prepared answerer with a
// gated stall: while stall holds, every exact probe parks for x11Stall.
// The declared fallback (when the base scheme has one) is untouched —
// degraded answers stay fast, which is the point of declaring them.
func x11StallScheme(base *core.Scheme, stall *atomic.Bool) *core.Scheme {
	wrapped := *base
	prepare := base.PrepareAnswerer
	wrapped.PrepareAnswerer = func(pd []byte) (core.Answerer, error) {
		a, err := prepare(pd)
		if err != nil {
			return nil, err
		}
		return core.AnswererFunc(func(q []byte) (bool, error) {
			if stall.Load() {
				time.Sleep(x11Stall)
			}
			return a.Answer(q)
		}), nil
	}
	return &wrapped
}

// x11Row is one chaos phase's tally.
type x11Row struct {
	phase     string
	requests  int
	ok200     int
	s503      int
	s504      int
	degraded  int
	maxOverMs float64
	checked   int // verdicts differentially checked against the oracle
}

// x11Reply is one request's decoded outcome.
type x11Reply struct {
	reply
	answer   bool
	degraded bool
}

// x11Post issues one query and decodes whatever came back.
func x11Post(client *http.Client, base, dataset string, query []byte) (x11Reply, error) {
	var qr server.QueryResponse
	rep, err := sendJSON(client, http.MethodPost, base+"/v1/query", server.QueryRequest{Dataset: dataset, Query: query}, &qr)
	return x11Reply{reply: rep, answer: qr.Answer, degraded: qr.Degraded}, err
}

// x11Healthz fetches the verbose health map.
func x11Healthz(client *http.Client, base string) (code int, status string, health map[string]string, err error) {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Status string            `json:"status"`
		Health map[string]string `json:"health"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, body.Status, body.Health, nil
}

// x11Measure runs the chaos timeline and returns the per-phase tallies
// plus the headline metrics: how long the tripped breaker took to serve
// again after the fault cleared, and the degraded-answer rate over the
// degraded phase.
func x11Measure(s Scale) (rows []x11Row, recoveryMs, degradedRate float64, err error) {
	n, universeSize := 96, 48
	if s == Full {
		n, universeSize = 240, 128
	}
	g := graph.CommunityGraph(6, n/6, n/2, int64(n)+31)
	cfg := x11BreakerCfg()

	var stallA, stallB atomic.Bool
	reg := store.NewRegistry("")
	reg.SetBreakerConfig(cfg)
	srv := server.New(reg, nil)
	srv.SetLimits(server.Limits{QueryBudget: x11Budget})
	base, client, stop, err := liveServer(srv)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("X11: %w", err)
	}
	client.Timeout = 10 * time.Second

	// Dataset A declares a fallback (labels → dense closure probe), so it
	// can degrade; dataset B (BFS per query) declares none, so it can only
	// 504 and trip.
	const idA, idB = "chaos-labels", "chaos-bfs"
	if _, err := reg.Register(idA, x11StallScheme(schemes.ReachabilityLabelsScheme(), &stallA), g.Encode()); err != nil {
		return nil, 0, 0, fmt.Errorf("X11: register %s: %w", idA, err)
	}
	if _, err := reg.Register(idB, x11StallScheme(schemes.ReachabilityBFSScheme(), &stallB), g.Encode()); err != nil {
		return nil, 0, 0, fmt.Errorf("X11: register %s: %w", idB, err)
	}

	// The oracle: the unwrapped BFS scheme's raw Answer over its own Π.
	truth := schemes.ReachabilityBFSScheme()
	prep, err := truth.Preprocess(g.Encode())
	if err != nil {
		return nil, 0, 0, fmt.Errorf("X11: oracle preprocess: %w", err)
	}
	rng := rand.New(rand.NewSource(int64(n) + 13))
	universe := make([][]byte, universeSize)
	expect := make([]bool, universeSize)
	for i := range universe {
		universe[i] = schemes.NodePairQuery(rng.Intn(g.N()), rng.Intn(g.N()))
		if expect[i], err = truth.Answer(prep, universe[i]); err != nil {
			return nil, 0, 0, fmt.Errorf("X11: oracle: %w", err)
		}
	}

	// Phase 1 — healthy: both datasets answer exact, on budget, correct.
	healthy := x11Row{phase: "healthy"}
	for _, id := range []string{idA, idB} {
		for i := 0; i < 12 && i < universeSize; i++ {
			rep, perr := x11Post(client, base, id, universe[i])
			if perr != nil {
				return nil, 0, 0, fmt.Errorf("X11: healthy/%s: %w", id, perr)
			}
			healthy.requests++
			if rep.code != http.StatusOK || rep.degraded {
				return nil, 0, 0, fmt.Errorf("X11: healthy/%s: status %d degraded %v (%s), want a plain 200",
					id, rep.code, rep.degraded, rep.errBody)
			}
			healthy.ok200++
			if rep.answer != expect[i] {
				return nil, 0, 0, fmt.Errorf("X11: healthy/%s: query %d diverged (got %v, want %v)", id, i, rep.answer, expect[i])
			}
			healthy.checked++
		}
	}
	if code, status, _, herr := x11Healthz(client, base); herr != nil || code != http.StatusOK || status != "ok" {
		return nil, 0, 0, fmt.Errorf("X11: healthy: healthz = (%d, %q, %v), want (200, ok, nil)", code, status, herr)
	}
	rows = append(rows, healthy)

	// Phase 2 — deadline: B's exact path stalls past the budget; every
	// query 504s, and none overruns the budget by more than the slack.
	stallB.Store(true)
	deadline := x11Row{phase: "deadline"}
	for i := 0; i < cfg.OpenAfter; i++ {
		rep, perr := x11Post(client, base, idB, universe[i%universeSize])
		if perr != nil {
			return nil, 0, 0, fmt.Errorf("X11: deadline: %w", perr)
		}
		deadline.requests++
		if rep.code != http.StatusGatewayTimeout {
			return nil, 0, 0, fmt.Errorf("X11: deadline: stalled query %d got status %d (%s), want 504", i, rep.code, rep.errBody)
		}
		deadline.s504++
		over := rep.latency - x11Budget
		if overMs := float64(over) / 1e6; overMs > deadline.maxOverMs {
			deadline.maxOverMs = overMs
		}
		if over > x11OverBudgetSlack {
			return nil, 0, 0, fmt.Errorf("X11: deadline: 504 arrived %.1fms past the %s budget (slack %s) — the deadline did not abandon the worker",
				float64(over)/1e6, x11Budget, x11OverBudgetSlack)
		}
	}
	rows = append(rows, deadline)

	// Phase 3 — open: the breaker refuses fast with Retry-After, and
	// /healthz drains the node.
	open := x11Row{phase: "open"}
	rep, perr := x11Post(client, base, idB, universe[0])
	if perr != nil {
		return nil, 0, 0, fmt.Errorf("X11: open: %w", perr)
	}
	open.requests++
	if rep.code != http.StatusServiceUnavailable || !rep.retryAfter {
		return nil, 0, 0, fmt.Errorf("X11: open: got status %d retry-after %v (%s), want a 503 with Retry-After",
			rep.code, rep.retryAfter, rep.errBody)
	}
	open.s503++
	if rep.latency > x11Budget {
		return nil, 0, 0, fmt.Errorf("X11: open: refusal took %s — an open breaker must fail fast, not pay the stall", rep.latency)
	}
	if code, status, health, herr := x11Healthz(client, base); herr != nil ||
		code != http.StatusServiceUnavailable || status != "unhealthy" || health[idB] != "open" {
		return nil, 0, 0, fmt.Errorf("X11: open: healthz = (%d, %q, %v, %v), want (503, unhealthy, %s open)",
			code, status, health, herr, idB)
	}
	rows = append(rows, open)

	// Phase 4 — degraded: A's exact path stalls too, but A declares a
	// fallback: after the soft threshold, answers keep flowing as exact
	// verdicts flagged "degraded": true.
	stallA.Store(true)
	degraded := x11Row{phase: "degraded"}
	for i := 0; i < cfg.DegradedAfter; i++ {
		rep, perr := x11Post(client, base, idA, universe[i])
		if perr != nil {
			return nil, 0, 0, fmt.Errorf("X11: degraded: %w", perr)
		}
		degraded.requests++
		if rep.code != http.StatusGatewayTimeout {
			return nil, 0, 0, fmt.Errorf("X11: degraded: stalled query %d got status %d (%s), want 504 first", i, rep.code, rep.errBody)
		}
		degraded.s504++
	}
	for i := 0; i < 8 && i < universeSize; i++ {
		rep, perr := x11Post(client, base, idA, universe[i])
		if perr != nil {
			return nil, 0, 0, fmt.Errorf("X11: degraded: %w", perr)
		}
		degraded.requests++
		if rep.code != http.StatusOK || !rep.degraded {
			return nil, 0, 0, fmt.Errorf("X11: degraded: query %d got status %d degraded %v (%s), want a degraded 200",
				i, rep.code, rep.degraded, rep.errBody)
		}
		degraded.ok200++
		degraded.degraded++
		if rep.answer != expect[i] {
			return nil, 0, 0, fmt.Errorf("X11: degraded: query %d diverged through the fallback (got %v, want %v) — degradation changed an answer",
				i, rep.answer, expect[i])
		}
		degraded.checked++
	}
	degradedRate = float64(degraded.degraded) / float64(degraded.ok200)
	rows = append(rows, degraded)

	// Phase 5 — heal: the stalls clear; B's breaker must serve again
	// within the configured backoff (its next admitted request is the
	// half-open probe), and every post-recovery verdict matches the
	// oracle on both datasets.
	stallA.Store(false)
	stallB.Store(false)
	heal := x11Row{phase: "heal"}
	healStart := time.Now()
	recovered := false
	for time.Since(healStart) < cfg.MaxBackoff+time.Second {
		rep, perr := x11Post(client, base, idB, universe[0])
		if perr != nil {
			return nil, 0, 0, fmt.Errorf("X11: heal: %w", perr)
		}
		heal.requests++
		if rep.code == http.StatusOK {
			heal.ok200++
			recovered = true
			break
		}
		if rep.code != http.StatusServiceUnavailable {
			return nil, 0, 0, fmt.Errorf("X11: heal: got status %d (%s) while waiting out the backoff, want 503 or 200", rep.code, rep.errBody)
		}
		heal.s503++
		time.Sleep(20 * time.Millisecond)
	}
	recoveryMs = float64(time.Since(healStart)) / 1e6
	if !recovered {
		return nil, 0, 0, fmt.Errorf("X11: heal: breaker still open %.0fms after the fault cleared (max backoff %s)", recoveryMs, cfg.MaxBackoff)
	}
	for _, id := range []string{idA, idB} {
		for i := range universe {
			rep, perr := x11Post(client, base, id, universe[i])
			if perr != nil {
				return nil, 0, 0, fmt.Errorf("X11: heal/%s: %w", id, perr)
			}
			heal.requests++
			if rep.code != http.StatusOK {
				return nil, 0, 0, fmt.Errorf("X11: heal/%s: query %d got status %d (%s), want 200", id, i, rep.code, rep.errBody)
			}
			heal.ok200++
			if rep.degraded {
				heal.degraded++
			}
			if rep.answer != expect[i] {
				return nil, 0, 0, fmt.Errorf("X11: heal/%s: query %d diverged after recovery (got %v, want %v)", id, i, rep.answer, expect[i])
			}
			heal.checked++
		}
	}
	if code, _, health, herr := x11Healthz(client, base); herr != nil || code == http.StatusServiceUnavailable || health[idB] != "healthy" {
		return nil, 0, 0, fmt.Errorf("X11: heal: healthz = (%d, %v, %v), want %s healthy again", code, health, herr, idB)
	}
	rows = append(rows, heal)

	if err := stop(); err != nil {
		return nil, 0, 0, fmt.Errorf("X11: %w", err)
	}

	// Phase 6 — quarantine-and-heal behind a chaotic medium: a snapshot
	// corrupted at rest, read through a fault-injecting file layer, must
	// be renamed aside, rebuilt from source, and the surviving delta log
	// replayed to the acknowledged version.
	qrow, err := x11Quarantine()
	if err != nil {
		return nil, 0, 0, err
	}
	rows = append(rows, qrow)
	return rows, recoveryMs, degradedRate, nil
}

// x11Quarantine is the corrupt-at-rest leg of the chaos run.
func x11Quarantine() (x11Row, error) {
	row := x11Row{phase: "quarantine"}
	const dir, id = "chaos-data", "pt"
	f := faultfs.New()
	med := &store.Medium{Dir: dir, FS: f, CheckpointEvery: 5}
	reg := store.NewRegistryMedium(med)
	data := schemes.RelationFromKeys([]int64{2, 4, 6})
	if _, err := reg.Register(id, schemes.PointSelectionScheme(), data); err != nil {
		return row, fmt.Errorf("X11: quarantine: register: %w", err)
	}
	// One acknowledged delta stays in the write-ahead log (cadence 5), so
	// the rebuild has real state to replay.
	if _, err := reg.ApplyDelta(id, [][]byte{schemes.KeysDelta([]int64{9})}); err != nil {
		return row, fmt.Errorf("X11: quarantine: delta: %w", err)
	}

	spath := store.SnapshotPath(dir, id)
	snap, ok := f.DurableBytes(spath)
	if !ok || len(snap) == 0 {
		return row, fmt.Errorf("X11: quarantine: no durable snapshot at %s", spath)
	}
	if !f.CorruptByte(spath, len(snap)/2) {
		return row, fmt.Errorf("X11: quarantine: CorruptByte missed %s", spath)
	}

	// Restart the medium with probabilistic read chaos armed: transient
	// errors and injected latency. (Torn reads stay off here: a silent
	// short read lies outside the WAL's crash model — real reads error
	// rather than truncate — and would discard the acknowledged tail.)
	// The load path must retry the transients, catch the corruption, and
	// quarantine.
	f.Restart()
	f.SetReadFaults(faultfs.ReadFaults{Seed: 11, ErrorRate: 0.2, Latency: time.Millisecond, LatencyRate: 0.3})
	reg2 := store.NewRegistryMedium(med)
	st, err := reg2.Register(id, schemes.PointSelectionScheme(), data)
	if err != nil {
		return row, fmt.Errorf("X11: quarantine: re-register over corrupt snapshot: %w", err)
	}
	row.requests++
	if st.WasLoaded() {
		return row, fmt.Errorf("X11: quarantine: dataset claims snapshot-loaded over corrupt bytes")
	}
	if n := reg2.QuarantineCount(); n != 1 {
		return row, fmt.Errorf("X11: quarantine: QuarantineCount %d, want 1", n)
	}
	if _, ok := f.DurableBytes(store.QuarantinePath(spath)); !ok {
		return row, fmt.Errorf("X11: quarantine: corrupt artifact not preserved at %s", store.QuarantinePath(spath))
	}
	if v := st.Version(); v != 1 {
		return row, fmt.Errorf("X11: quarantine: rebuilt at version %d, want 1 (log replayed)", v)
	}
	for _, tc := range []struct {
		key  int64
		want bool
	}{{2, true}, {4, true}, {9, true}, {3, false}} {
		got, err := st.Answer(schemes.PointQuery(tc.key))
		if err != nil || got != tc.want {
			return row, fmt.Errorf("X11: quarantine: key %d = (%v, %v), want (%v, nil)", tc.key, got, err, tc.want)
		}
		row.checked++
	}
	row.ok200 = row.checked

	// The heal is durable: a clean restart loads the rewritten snapshot
	// at the replayed version.
	f.Restart()
	reg3 := store.NewRegistryMedium(med)
	st3, err := reg3.Register(id, schemes.PointSelectionScheme(), data)
	if err != nil {
		return row, fmt.Errorf("X11: quarantine: post-heal restart: %w", err)
	}
	if !st3.WasLoaded() || st3.Version() != 1 {
		return row, fmt.Errorf("X11: quarantine: post-heal restart loaded %v at version %d, want a clean load at 1",
			st3.WasLoaded(), st3.Version())
	}
	return row, nil
}

// X11Chaos renders the serve-path chaos experiment.
func X11Chaos(s Scale) (*Table, error) {
	t := &Table{
		ID:    "X11",
		Title: "serve-path chaos: query deadlines, breaker trip/heal, degraded fallbacks, quarantine-and-heal",
		Columns: []string{"phase", "requests", "200s", "503s", "504s", "degraded",
			"max over-budget ms", "verdicts ok"},
	}
	rows, recoveryMs, degradedRate, err := x11Measure(s)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddRow(r.phase, r.requests, r.ok200, r.s503, r.s504, r.degraded, r.maxOverMs, r.checked)
	}
	cfg := x11BreakerCfg()
	t.Note("SLOs asserted in-line: every 504 within %s of the %s budget; open breaker refuses fast with Retry-After", x11OverBudgetSlack, x11Budget)
	t.Note("breaker served again %.0f ms after the fault cleared (backoff %s, max %s); degraded rate %.0f%% with every verdict matching the oracle",
		recoveryMs, cfg.Backoff, cfg.MaxBackoff, degradedRate*100)
	t.Note("quarantine leg: corrupt snapshot renamed aside behind injected read faults, Π rebuilt, delta log replayed to the acknowledged version")
	return t, nil
}

// X11ChaosMetrics reports the headline chaos numbers — how long the
// tripped breaker took to serve again once the fault cleared, and the
// degraded-answer rate while the fallback carried the traffic — for
// BenchmarkX11, so the benchmark output tracks recovery behavior from this PR on.
func X11ChaosMetrics(s Scale) (recoveryMs, degradedRate float64, err error) {
	_, recoveryMs, degradedRate, err = x11Measure(s)
	return recoveryMs, degradedRate, err
}
