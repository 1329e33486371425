package harness

// X7 measures the serving envelope under load: a live HTTP server with
// admission control configured, hammered by a worker pool issuing hot,
// zipf, and cold query mixes at two offered concurrencies — one inside
// the configured in-flight limit and one far beyond it. Inside the
// limit the envelope must be invisible (zero rejections); beyond it the
// server must degrade by stating backpressure — 429 with a Retry-After
// header — while the requests it does admit keep their latency, instead
// of queueing everything into collapse. The experiment asserts its SLOs
// in-line and fails rather than render a table for a server that hung,
// dropped the Retry-After advertisement, or mis-answered under pressure.

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/server"
	"pitract/internal/store"
)

// x7ServiceFloor is the controlled per-answer service time of the load
// workload. A load generator needs the in-handler window to dominate the
// request lifecycle, or saturation (and so the backpressure SLO) depends
// on scheduler luck: the BFS answers alone are microseconds while the
// localhost HTTP round trip is hundreds, so offered concurrency would
// melt before it reached the admission gate. The floor models the paper's
// regime honestly — answering is NC-cheap but not free at 10^15 bytes —
// and makes "overload admits at most cap × service-rate" arithmetic, not
// chance.
const x7ServiceFloor = 2 * time.Millisecond

// x7Scheme wraps the BFS-per-query reachability scheme with the service
// floor. Verdicts and errors are the wrapped scheme's, byte for byte, so
// the differential check against the raw store still holds.
func x7Scheme() *core.Scheme {
	base := schemes.ReachabilityBFSScheme()
	return &core.Scheme{
		SchemeName: base.SchemeName,
		Preprocess: base.Preprocess,
		Answer: func(pd, q []byte) (bool, error) {
			time.Sleep(x7ServiceFloor)
			return base.Answer(pd, q)
		},
		PreprocessNote: base.PreprocessNote,
		AnswerNote:     base.AnswerNote + " + fixed service floor",
	}
}

// x7HangBound is the zero-hangs SLO: no request — admitted or rejected —
// may take longer than this end to end. It is deliberately generous (the
// envelope's job is to keep the tail bounded, not small on a loaded CI
// host), and a violation fails the experiment.
const x7HangBound = 10 * time.Second

// x7Result is one request's outcome as the load generator saw it.
type x7Result struct {
	latency    time.Duration
	admitted   bool
	retryAfter bool // a 429 carried a Retry-After header
	answer     bool
	queryIdx   int
}

// x7Row is one measured (mix, load level) cell.
type x7Row struct {
	mix       string
	workers   int
	inFlight  int // configured MaxInFlight (0 = unlimited)
	requests  int
	admitted  int
	rejected  int
	latencies []time.Duration // admitted requests only, unsorted
}

// x7Percentile returns the q-quantile (0 < q <= 1) of sorted latencies.
func x7Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// x7Measure runs the load experiment and returns the measured rows.
func x7Measure(s Scale) ([]x7Row, error) {
	requestsPerWorker := 24
	universeSize := 256
	if s == Full {
		requestsPerWorker = 64
		universeSize = 1024
	}
	n := 96
	g := graph.CommunityGraph(6, n/6, n/2, int64(n))

	reg := store.NewRegistry("")
	srv := server.New(reg, nil)
	const inFlightCap = 2
	srv.SetLimits(server.Limits{
		MaxInFlight: inFlightCap,
		RetryAfter:  time.Second,
	})
	// Each load level below builds its own client (sized and timed for that
	// level), so the helper's is unused.
	base, _, stop, err := liveServer(srv)
	if err != nil {
		return nil, fmt.Errorf("X7: %w", err)
	}

	const id = "x7-graph"
	if _, err := reg.Register(id, x7Scheme(), g.Encode()); err != nil {
		return nil, fmt.Errorf("X7: register: %w", err)
	}

	// The query universe, with ground truth from the unwrapped BFS scheme
	// (identical verdicts without the service floor) to check admitted
	// responses against.
	truth := schemes.ReachabilityBFSScheme()
	prep, err := truth.Preprocess(g.Encode())
	if err != nil {
		return nil, fmt.Errorf("X7: ground-truth preprocess: %w", err)
	}
	rng := rand.New(rand.NewSource(int64(n) + 71))
	universe := make([][]byte, universeSize)
	expect := make([]bool, universeSize)
	for i := range universe {
		universe[i] = schemes.NodePairQuery(rng.Intn(g.N()), rng.Intn(g.N()))
		if expect[i], err = truth.Answer(prep, universe[i]); err != nil {
			return nil, fmt.Errorf("X7: ground truth: %w", err)
		}
	}
	zipf := rand.NewZipf(rng, 1.4, 4, uint64(universeSize-1))

	var rows []x7Row
	// Load levels: "within" offers at most the in-flight cap, so the
	// envelope must stay invisible; "overload" offers an order of
	// magnitude more, so backpressure must appear.
	for _, level := range []struct {
		name    string
		workers int
	}{
		{"within", inFlightCap},
		{"overload", 12 * inFlightCap},
	} {
		for _, mix := range []string{"hot", "zipf", "cold"} {
			// Per-worker request scripts, drawn up front so the workers
			// spend their time requesting, not sampling.
			scripts := make([][]int, level.workers)
			next := 0
			for w := range scripts {
				scripts[w] = make([]int, requestsPerWorker)
				for i := range scripts[w] {
					switch mix {
					case "hot":
						scripts[w][i] = 0
					case "zipf":
						scripts[w][i] = int(zipf.Uint64())
					default:
						scripts[w][i] = next % universeSize
						next++
					}
				}
			}

			client := &http.Client{
				Timeout:   x7HangBound,
				Transport: &http.Transport{MaxIdleConnsPerHost: level.workers + 1},
			}
			results := make([][]x7Result, level.workers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			var workerErr error
			var errOnce sync.Once
			for w := range scripts {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					<-start
					out := make([]x7Result, 0, requestsPerWorker)
					for _, qi := range scripts[w] {
						res, err := x7Post(client, base, id, universe[qi], qi)
						if err != nil {
							errOnce.Do(func() { workerErr = err })
							return
						}
						out = append(out, res)
					}
					results[w] = out
				}(w)
			}
			close(start)
			wg.Wait()
			client.CloseIdleConnections()
			if workerErr != nil {
				return nil, fmt.Errorf("X7: %s/%s: %w", level.name, mix, workerErr)
			}

			row := x7Row{mix: mix, workers: level.workers, inFlight: inFlightCap}
			for _, rs := range results {
				for _, r := range rs {
					row.requests++
					if r.latency > x7HangBound {
						return nil, fmt.Errorf("X7: %s/%s: request hung %.1fs (bound %s)",
							level.name, mix, r.latency.Seconds(), x7HangBound)
					}
					if !r.admitted {
						row.rejected++
						if !r.retryAfter {
							return nil, fmt.Errorf("X7: %s/%s: a 429 arrived without Retry-After",
								level.name, mix)
						}
						continue
					}
					row.admitted++
					row.latencies = append(row.latencies, r.latency)
					if r.answer != expect[r.queryIdx] {
						return nil, fmt.Errorf("X7: %s/%s: query %d diverged under load (got %v, want %v)",
							level.name, mix, r.queryIdx, r.answer, expect[r.queryIdx])
					}
				}
			}
			if level.name == "within" && row.rejected > 0 {
				return nil, fmt.Errorf("X7: within/%s: %d rejections with offered concurrency %d <= cap %d",
					mix, row.rejected, level.workers, inFlightCap)
			}
			if level.name == "overload" && row.admitted == 0 {
				return nil, fmt.Errorf("X7: overload/%s: envelope admitted nothing", mix)
			}
			if level.name == "overload" && row.rejected == 0 {
				return nil, fmt.Errorf("X7: overload/%s: no backpressure at offered concurrency %d over cap %d",
					mix, level.workers, inFlightCap)
			}
			rows = append(rows, row)
		}
	}

	if err := stop(); err != nil {
		return nil, fmt.Errorf("X7: %w", err)
	}
	return rows, nil
}

// x7Post issues one query and classifies the outcome: 200 is admitted,
// 429 is backpressure (recording whether Retry-After rode along), and
// anything else is an experiment failure.
func x7Post(client *http.Client, base, dataset string, query []byte, queryIdx int) (x7Result, error) {
	var qr server.QueryResponse
	rep, err := sendJSON(client, http.MethodPost, base+"/v1/query", server.QueryRequest{Dataset: dataset, Query: query}, &qr)
	if err != nil {
		return x7Result{}, err
	}
	res := x7Result{latency: rep.latency, queryIdx: queryIdx}
	switch rep.code {
	case http.StatusOK:
		res.admitted, res.answer = true, qr.Answer
	case http.StatusTooManyRequests:
		res.retryAfter = rep.retryAfter
	default:
		return x7Result{}, fmt.Errorf("unexpected status %d: %s", rep.code, rep.errBody)
	}
	return res, nil
}

// X7Envelope renders the load/SLO experiment.
func X7Envelope(s Scale) (*Table, error) {
	t := &Table{
		ID:    "X7",
		Title: "serving envelope under load: admission, backpressure, and admitted-tail latency",
		Columns: []string{"load", "mix", "workers", "cap", "requests", "admitted",
			"429s", "p50 ms", "p99 ms", "p999 ms", "admitted qps"},
	}
	rows, err := x7Measure(s)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		sort.Slice(r.latencies, func(i, j int) bool { return r.latencies[i] < r.latencies[j] })
		level := "within"
		if r.workers > r.inFlight {
			level = "overload"
		}
		var total time.Duration
		for _, l := range r.latencies {
			total += l
		}
		qps := 0.0
		if total > 0 {
			// Aggregate service throughput of the admitted stream: requests
			// per second of summed in-request time, an envelope-independent
			// denominator (wall time would charge the rejected stream too).
			qps = float64(r.admitted) / total.Seconds() * float64(minInt(r.workers, r.inFlight))
		}
		t.AddRow(level, r.mix, r.workers, r.inFlight, r.requests, r.admitted, r.rejected,
			float64(x7Percentile(r.latencies, 0.50))/1e6,
			float64(x7Percentile(r.latencies, 0.99))/1e6,
			float64(x7Percentile(r.latencies, 0.999))/1e6,
			qps)
	}
	t.Note("SLOs asserted in-line: zero rejections within the cap, backpressure beyond it, every 429 carries Retry-After")
	t.Note("no request exceeded the %s hang bound; every admitted verdict differentially checked against the store", x7HangBound)
	return t, nil
}

// X7EnvelopeMetrics reports the headline overload numbers — the admitted
// p99 latency (ms) and the rejection rate over the overload zipf mix —
// for BenchmarkX7's metrics, so the benchmark output tracks the envelope's
// behavior under pressure from this PR on.
func X7EnvelopeMetrics(s Scale) (p99Ms, rejectedRate float64, err error) {
	rows, err := x7Measure(s)
	if err != nil {
		return 0, 0, err
	}
	for _, r := range rows {
		if r.mix != "zipf" || r.workers <= r.inFlight {
			continue
		}
		sort.Slice(r.latencies, func(i, j int) bool { return r.latencies[i] < r.latencies[j] })
		p99Ms = float64(x7Percentile(r.latencies, 0.99)) / 1e6
		if r.requests > 0 {
			rejectedRate = float64(r.rejected) / float64(r.requests)
		}
	}
	return p99Ms, rejectedRate, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
