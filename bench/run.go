package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"pitract/internal/cache"
	"pitract/internal/schemes"
	"pitract/internal/server"
	"pitract/internal/store"
)

// config is one invocation's protocol: the same for every workload.
type config struct {
	seed     int64
	window   time.Duration // measured time per workload, cut into segments
	segment  time.Duration // length of one segment
	warm     time.Duration // minimum warm-up
	setupFor time.Duration // repeat the set-up until this much time went into it (3 to 15 times)
	quick    bool          // test sizes
	trace    bool          // also run the layer ladder
	rungTime time.Duration // timed loop per ladder rung
	outDir   string
	// corruptOracle flips one expected verdict: the test that verifies the
	// verifier sets it and expects failed_share above 0.
	corruptOracle bool
}

// instance is one in-process server on a real loopback listener.
type instance struct {
	srv    *server.Server
	reg    *store.Registry
	cache  *cache.Cache
	url    string
	dir    string
	served chan error
}

// startInstance stands the server up the way `pitract serve` would: the
// configuration goes through the setters its flags call and nothing else.
func startInstance(sp *spec, dir string) (*instance, error) {
	reg := store.NewRegistry(dir)
	if sp.checkpointEvery > 0 {
		reg.SetCheckpointEvery(sp.checkpointEvery)
	}
	srv := server.New(reg, nil)
	srv.SetLimits(sp.limits)
	in := &instance{srv: srv, reg: reg, dir: dir, served: make(chan error, 1)}
	if sp.cacheBytes > 0 {
		in.cache = cache.New(sp.cacheBytes)
		srv.SetAnswerCache(in.cache)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.url = "http://" + ln.Addr().String()
	go func() { in.served <- srv.Serve(ln) }()
	return in, nil
}

// close drains the server and waits for its accept loop to return.
func (in *instance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	if serr := <-in.served; err == nil {
		err = serr
	}
	return err
}

// conn is one closed-loop client connection: its own transport capped at a
// single TCP connection, so "2 connections" is literal.
type conn struct {
	hc          *http.Client
	buf         bytes.Buffer
	lastVersion uint64
	next        int // next index into the request sequence
	attempted   int64
	failed      int64
}

func newConn() *conn {
	return &conn{hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *conn) closeIdle() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response body; the returned
// slice is valid until the next call.
func (c *conn) do(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

// segStat is what one measured segment yields.
type segStat struct {
	elapsed time.Duration
	answers int
	readLat []int64 // ns, send → last body byte read
	pchLat  []int64 // ns, acknowledged PATCHes of a writer workload
}

// run is one workload in flight.
type run struct {
	sp   *spec
	cfg  *config
	ds   dataset
	reqs []request
	sha  string
	ms   metricSet

	regBody []byte
	in      *instance
	dirs    []string // data directories to remove at the end
	conns   [2]*conn

	mu       sync.Mutex
	problems []string

	segs []segStat
	// window accumulates the process counters over the measured segments,
	// phases the stage histograms over every phase of this workload.
	window       counters
	phases       counters
	patchesAcked int

	disagreements []string
}

func newRun(sp *spec, cfg *config) *run {
	return &run{sp: sp, cfg: cfg, ms: metricSet{}, conns: [2]*conn{newConn(), newConn()}}
}

// problem records a failed check; the first few are printed.
func (r *run) problem(format string, args ...interface{}) {
	r.mu.Lock()
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *run) attempted() int64 { return r.conns[0].attempted + r.conns[1].attempted }
func (r *run) failed() int64    { return r.conns[0].failed + r.conns[1].failed }

// mustJSON marshals the benchmark's own request types — structs of strings
// and byte slices — for which encoding/json has no failure.
func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// generate derives every input from the seed and the workload name: the
// registration payload, the request bodies, and — separately timed — the
// oracle's verdicts.
func (r *run) generate() {
	var nameSeed int64
	for _, b := range []byte(r.sp.name) {
		nameSeed = nameSeed*131 + int64(b)
	}
	rng := rand.New(rand.NewSource(r.cfg.seed*1000003 + nameSeed))
	r.ds = r.sp.gen(rng, r.cfg.quick)

	t0 := time.Now()
	want := r.ds.oracle()
	r.ms.set("bench.oracle_s", time.Since(t0).Seconds())
	if r.cfg.corruptOracle {
		want[r.ds.plan[0]] = !want[r.ds.plan[0]]
	}

	r.reqs = r.ds.requests(r.sp.batch, want)
	r.regBody = mustJSON(server.RegisterRequest{ID: datasetID, Scheme: r.sp.scheme, Data: r.ds.data})
	h := sha256.New()
	h.Write(r.regBody)
	for i := range r.reqs {
		h.Write(r.reqs[i].body)
	}
	if r.sp.writer {
		for i := 0; i < 32; i++ {
			h.Write(patchBody(r.ds.space, i))
		}
	}
	r.sha = hex.EncodeToString(h.Sum(nil))
}

// dataDir makes a fresh data directory for a persistent workload ("" for a
// memory-only one) and remembers it for removal.
func (r *run) dataDir(tag string) (string, error) {
	if r.sp.checkpointEvery == 0 {
		return "", nil
	}
	dir := filepath.Join(r.cfg.outDir, fmt.Sprintf("data-%s-%d-%s", r.sp.name, os.Getpid(), tag))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	r.dirs = append(r.dirs, dir)
	return dir, nil
}

// setup registers the dataset on a fresh server several times and keeps the
// last one. The timed span is POST /v1/datasets until the 200 — Preprocess,
// Warm, shard build and the first snapshot where they apply; data generation
// is outside it. setup_s is the fastest of the repeats: what this box adds
// to a set-up is one-sided (a stalled vCPU, a GC cycle, a slow transfer of
// the body), so the minimum repeats where the median does not. A cheap
// set-up is repeated more often, up to cfg.setupFor in total.
func (r *run) setup() error {
	var times []float64
	var total time.Duration
	for i := 0; i < 3 || (i < 15 && total < r.cfg.setupFor); i++ {
		if r.in != nil {
			if err := r.in.close(); err != nil {
				return err
			}
			r.in = nil
			runtime.GC()
		}
		dir, err := r.dataDir(fmt.Sprintf("setup%d", i))
		if err != nil {
			return err
		}
		in, err := startInstance(r.sp, dir)
		if err != nil {
			return err
		}
		r.in = in
		before := readCounters()
		t0 := time.Now()
		status, body, err := r.conns[0].do(http.MethodPost, in.url+"/v1/datasets"+r.sp.registerQuery, r.regBody)
		elapsed := time.Since(t0)
		r.phases.add(readCounters().sub(before))
		if err != nil {
			return fmt.Errorf("%s: register: %w", r.sp.name, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("%s: register: status %d: %s", r.sp.name, status, body)
		}
		var info server.DatasetInfo
		if err := json.Unmarshal(body, &info); err != nil {
			return fmt.Errorf("%s: register: %w", r.sp.name, err)
		}
		if info.Loaded {
			return fmt.Errorf("%s: a fresh set-up reloaded a snapshot", r.sp.name)
		}
		total += elapsed
		times = append(times, elapsed.Seconds())
		r.ms.set("pi_bytes_per_data_byte", float64(info.PrepBytes)/float64(len(r.ds.data)))
	}
	r.ms.setN("setup_s", minOf(times), spread(times), len(times))
	r.ms.set("store.preprocess_calls", float64(r.in.reg.PreprocessCount()))
	r.ms.set("store.snapshot_loads", float64(r.in.reg.LoadCount()))
	return nil
}

// read sends one query request and checks every verdict against the oracle
// and the version against the last one this connection saw.
func (r *run) read(c *conn, rq *request) (lat time.Duration, answers int) {
	c.attempted++
	t0 := time.Now()
	status, body, err := c.do(http.MethodPost, r.in.url+r.sp.queryPath(), rq.body)
	lat = time.Since(t0)
	if why := r.checkAnswer(c, rq, status, body, err); why != "" {
		c.failed++
		r.problem("%s: query: %s", r.sp.name, why)
		return lat, 0
	}
	return lat, len(rq.want)
}

// checkAnswer says what is wrong with one query response ("" = nothing).
func (r *run) checkAnswer(c *conn, rq *request, status int, body []byte, err error) string {
	if err != nil || status != http.StatusOK {
		return fmt.Sprintf("status %d err %v body %.120s", status, err, body)
	}
	var got []bool
	var version uint64
	if r.sp.batch > 1 {
		var br server.BatchResponse
		err = json.Unmarshal(body, &br)
		got, version = br.Answers, br.Version
	} else {
		var qr server.QueryResponse
		err = json.Unmarshal(body, &qr)
		got, version = []bool{qr.Answer}, qr.Version
	}
	switch {
	case err != nil:
		return fmt.Sprintf("bad response: %v", err)
	case len(got) != len(rq.want):
		return fmt.Sprintf("%d verdicts for %d queries", len(got), len(rq.want))
	case version < c.lastVersion:
		return fmt.Sprintf("version went back from %d to %d", c.lastVersion, version)
	}
	for i := range got {
		if got[i] != rq.want[i] {
			return fmt.Sprintf("wrong verdict for query %d of the request: got %v", i, got[i])
		}
	}
	c.lastVersion = version
	return ""
}

// patch sends the writer's next PATCH. An acknowledged PATCH must carry the
// next version exactly: this connection is the only writer.
func (r *run) patch(c *conn) (lat time.Duration, ok bool) {
	body := patchBody(r.ds.space, r.patchesAcked)
	c.attempted++
	t0 := time.Now()
	status, resp, err := c.do(http.MethodPatch, r.in.url+"/v1/datasets/"+datasetID, body)
	lat = time.Since(t0)
	var info server.DatasetInfo
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(resp, &info)
	}
	if err != nil || status != http.StatusOK || info.Version != c.lastVersion+1 {
		c.failed++
		r.problem("%s: PATCH %d: status %d err %v version %d after %d", r.sp.name, r.patchesAcked, status, err, info.Version, c.lastVersion)
		return lat, false
	}
	c.lastVersion = info.Version
	r.patchesAcked++
	return lat, true
}

// drive runs the closed loops until the deadline: every connection sends
// its next request only after the previous reply is read. Connection 0
// reads; connection 1 reads too, or writes on a writer workload.
func (r *run) drive(d time.Duration) segStat {
	var st segStat
	var wg sync.WaitGroup
	var ans [2]int
	var lats [2][]int64
	start := time.Now()
	deadline := start.Add(d)
	for ci := range r.conns {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := r.conns[ci]
			writer := r.sp.writer && ci == 1
			for time.Now().Before(deadline) {
				if writer {
					if lat, ok := r.patch(c); ok {
						lats[ci] = append(lats[ci], lat.Nanoseconds())
					}
					continue
				}
				// Two readers interleave over one sequence (connection 1
				// starts at index 1), so together they replay it in order.
				rq := &r.reqs[c.next%len(r.reqs)]
				if r.sp.writer {
					c.next++
				} else {
					c.next += 2
				}
				lat, n := r.read(c, rq)
				if n > 0 {
					ans[ci] += n
					lats[ci] = append(lats[ci], lat.Nanoseconds())
				}
			}
		}(ci)
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	st.answers = ans[0]
	st.readLat = lats[0]
	if r.sp.writer {
		st.pchLat = lats[1]
	} else {
		st.answers += ans[1]
		st.readLat = append(st.readLat, lats[1]...)
	}
	return st
}

// warmup lets caches fill and lazy set-up finish: the workload's own
// traffic until the minimum has passed and a cached workload has seen its
// whole request pool or filled its cache.
func (r *run) warmup() {
	r.conns[1].next = 1
	start := time.Now()
	sent := 0
	for {
		st := r.drive(r.cfg.warm / 3)
		sent += len(st.readLat)
		warm := time.Since(start) >= r.cfg.warm
		if c := r.in.cache; c != nil && !r.cfg.quick {
			warm = warm && (sent >= len(r.reqs) || c.Stats().Evictions > 0)
		}
		if warm || time.Since(start) > time.Minute {
			return
		}
	}
}

// segment measures one slice of the window and accounts the process
// counters to this workload.
func (r *run) segment() {
	before := readCounters()
	st := r.drive(r.cfg.segment)
	d := readCounters().sub(before)
	r.window.add(d)
	r.phases.add(d)
	r.segs = append(r.segs, st)
}

// finishWindow turns the segments into the end-to-end metrics.
//
// The read metrics are best-segment figures: answers_per_s is the highest
// per-segment rate and query_p50_us the lowest per-segment median. On the
// shared 2-vCPU box identical code swings 15–30% in window totals between
// runs while its best quarter-second repeats within a few percent, because
// what the box adds is one-sided: it only ever slows a segment down. Every
// segment holds hundreds of requests and several GC cycles and PATCHes, so a
// cost the program itself pays lands in all of them alike. The window
// totals stay in the output as bench.window_* for a reader who wants them.
func (r *run) finishWindow() error {
	var rates, p50s []float64
	var reads, patches []int64
	var elapsed time.Duration
	answers := 0
	for _, s := range r.segs {
		if len(s.readLat) == 0 {
			continue
		}
		rates = append(rates, float64(s.answers)/s.elapsed.Seconds())
		p50s = append(p50s, float64(percentile(sortedCopy(s.readLat), 0.5))/1e3)
		reads = append(reads, s.readLat...)
		patches = append(patches, s.pchLat...)
		answers += s.answers
		elapsed += s.elapsed
	}
	if len(reads) == 0 {
		return fmt.Errorf("%s: the window completed no query", r.sp.name)
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i] < reads[j] })
	r.ms.setN("answers_per_s", maxOf(rates), spread(rates), len(rates))
	r.ms.setN("query_p50_us", minOf(p50s), spread(p50s), len(reads))
	r.ms.setN("query_p99_us", float64(percentile(reads, 0.99))/1e3, 0, len(reads))
	r.ms.set("bench.segment_spread", spread(rates))
	r.ms.set("bench.window_answers_per_s", float64(answers)/elapsed.Seconds())
	r.ms.set("bench.window_p50_us", float64(percentile(reads, 0.5))/1e3)
	if r.sp.writer {
		if len(patches) == 0 {
			return fmt.Errorf("%s: the window acknowledged no PATCH", r.sp.name)
		}
		sort.Slice(patches, func(i, j int) bool { return patches[i] < patches[j] })
		// The write metrics are window figures: a checkpoint comes every
		// 16th PATCH, so its cost is only amortised over many of them.
		r.ms.setN("patches_per_s", float64(len(patches))/elapsed.Seconds(), 0, len(patches))
		r.ms.setN("patch_p50_ms", float64(percentile(patches, 0.5))/1e6, 0, len(patches))
		r.ms.setN("store.patch_p99_ms", float64(percentile(patches, 0.99))/1e6, 0, len(patches))
	}

	return r.windowCounters(float64(answers))
}

// windowCounters reports the counter-based layer metrics of the window: the
// process's own (client included) per verified answer, and the program's
// public ones from GET /v1/stats, which count from the server's start.
func (r *run) windowCounters(answers float64) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.ms.set("proc.heap_inuse_mb", float64(ms.HeapInuse)/(1<<20))
	r.ms.set("proc.cpu_us_per_answer", float64(r.window.cpuUs)/answers)
	r.ms.set("proc.allocs_per_answer", float64(r.window.mallocs)/answers)
	r.ms.set("proc.alloc_bytes_per_answer", float64(r.window.allocBytes)/answers)
	r.ms.set("proc.gc_pause_ms_total", float64(r.window.gcPauseNs)/1e6)
	var stats server.StatsResponse
	status, body, err := r.conns[0].do(http.MethodGet, r.in.url+"/v1/stats", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(body, &stats)
	}
	if err != nil {
		return fmt.Errorf("%s: GET /v1/stats: %w", r.sp.name, err)
	}
	env := stats.Envelope
	r.ms.set("server.rejected_429", float64(env.Rejected429))
	r.ms.set("server.deadline_504", float64(env.Deadline504))
	r.ms.set("server.breaker_503", float64(env.Breaker503))
	r.ms.set("server.body_413", float64(env.RejectedBody413+env.RejectedBatch413))
	if refused := env.Rejected429 + env.Deadline504 + env.Breaker503 + env.RejectedBody413 + env.RejectedBatch413; refused > 0 && r.failed() == 0 {
		return fmt.Errorf("%s: the server refused %d requests no client saw fail", r.sp.name, refused)
	}
	if c := stats.Cache; c != nil {
		r.ms.set("cache.hits", float64(c.Hits))
		r.ms.set("cache.misses", float64(c.Misses))
		if c.Hits+c.Misses > 0 {
			r.ms.set("cache.hit_ratio", float64(c.Hits)/float64(c.Hits+c.Misses))
		}
		r.ms.set("cache.coalesced", float64(c.Coalesced))
		r.ms.set("cache.evictions", float64(c.Evictions))
		r.ms.set("cache.resident_bytes", float64(c.Bytes))
	}
	return nil
}

// stageMeans reports the program's own per-stage account, accumulated over
// every phase of this workload.
func (r *run) stageMeans() {
	for stage, name := range stageMetrics {
		if s := r.phases.stages[stage]; s.count > 0 {
			r.ms.setN(name, float64(s.sumNs)/float64(s.count), 0, int(s.count))
		}
	}
}

// written lists every key the writer's acknowledged PATCHes touched and
// whether it must be present now.
func (r *run) written() (keys []int64, live []bool) {
	present := map[int]bool{}
	var order []int
	for i := 0; i < r.patchesAcked; i++ {
		b, del := patchPlan(i)
		if !del {
			order = append(order, b)
		}
		present[b] = !del
	}
	for _, b := range order {
		for _, k := range patchBatch(r.ds.space, b) {
			keys = append(keys, k)
			live = append(live, present[b])
		}
	}
	return keys, live
}

// checkWritten reads every written key back over HTTP: acknowledged inserts
// are present, acknowledged deletes are gone.
func (r *run) checkWritten() {
	keys, live := r.written()
	const chunk = 2048
	for at := 0; at < len(keys); at += chunk {
		end := at + chunk
		if end > len(keys) {
			end = len(keys)
		}
		qs := make([][]byte, end-at)
		for i, k := range keys[at:end] {
			qs[i] = schemes.PointQuery(k)
		}
		body := mustJSON(server.BatchRequest{Dataset: datasetID, Queries: qs})
		c := r.conns[0]
		c.attempted++
		status, resp, err := c.do(http.MethodPost, r.in.url+"/v1/query/batch", body)
		var br server.BatchResponse
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(resp, &br)
		}
		if err != nil || status != http.StatusOK || len(br.Answers) != len(qs) {
			c.failed++
			r.problem("%s: read-back: status %d err %v", r.sp.name, status, err)
			continue
		}
		for i, got := range br.Answers {
			if got != live[at+i] {
				c.failed++
				r.problem("%s: read-back: key %d present=%v, want %v", r.sp.name, keys[at+i], got, live[at+i])
				break
			}
		}
	}
}

// restartLeg is the durability and reload check of a writer workload, after
// the window: PATCH until exactly 15 records sit in the delta log, stop the
// server, and open three copies of its directory with a fresh registry —
// the same fixed work each time (one snapshot load, 15 replays, one Warm).
// Every copy must come back loaded, at the acknowledged version, with every
// written key readable. reload_s is the fastest of the three.
func (r *run) restartLeg() error {
	w := r.conns[1]
	every := r.sp.checkpointEvery
	for tries := 0; r.patchesAcked%every != every-1; tries++ {
		if tries > 4*every {
			return fmt.Errorf("%s: could not bring the delta log to %d records", r.sp.name, every-1)
		}
		r.patch(w)
	}
	r.checkWritten()
	acked := w.lastVersion
	src := r.in.dir
	if err := r.in.close(); err != nil {
		return err
	}
	r.in = nil

	keys, live := r.written()
	qs := make([][]byte, len(keys))
	for i, k := range keys {
		qs[i] = schemes.PointQuery(k)
	}
	scheme := server.Catalog()[r.sp.scheme]
	var times []float64
	for i := 0; i < 3; i++ {
		dir, err := r.dataDir(fmt.Sprintf("copy%d", i))
		if err != nil {
			return err
		}
		if err := copyDir(src, dir); err != nil {
			return err
		}
		c := r.conns[0]
		c.attempted++
		before := readCounters()
		reg := store.NewRegistry(dir)
		reg.SetCheckpointEvery(every)
		t0 := time.Now()
		st, err := reg.Register(datasetID, scheme, r.ds.data)
		elapsed := time.Since(t0)
		r.phases.add(readCounters().sub(before))
		if err != nil {
			return fmt.Errorf("%s: reload: %w", r.sp.name, err)
		}
		times = append(times, elapsed.Seconds())
		got, err := st.AnswerBatch(qs, 0)
		switch {
		case err != nil:
			r.problem("%s: reload %d: read-back: %v", r.sp.name, i, err)
		case !st.WasLoaded() || reg.LoadCount() != 1 || reg.PreprocessCount() != 0:
			r.problem("%s: reload %d re-preprocessed instead of loading (loads %d, preprocess calls %d)", r.sp.name, i, reg.LoadCount(), reg.PreprocessCount())
		case st.Version() != acked:
			r.problem("%s: reload %d came back at version %d, acknowledged %d", r.sp.name, i, st.Version(), acked)
		case reg.ReplayCount() != int64(every-1):
			r.problem("%s: reload %d replayed %d log records, want %d", r.sp.name, i, reg.ReplayCount(), every-1)
		default:
			ok := true
			for j := range got {
				if got[j] != live[j] {
					r.problem("%s: reload %d: acknowledged key %d present=%v, want %v", r.sp.name, i, keys[j], got[j], live[j])
					ok = false
					break
				}
			}
			if ok {
				r.ms.set("store.log_replays", float64(reg.ReplayCount()))
				r.ms.set("store.snapshot_loads", float64(reg.LoadCount()))
				r.ms.set("store.preprocess_calls", float64(reg.PreprocessCount()))
				continue
			}
		}
		c.failed++
	}
	r.ms.setN("reload_s", minOf(times), spread(times), len(times))
	return nil
}

// finish closes the server, drops the data directories and seals the
// metric set.
func (r *run) finish() error {
	var err error
	if r.in != nil {
		err = r.in.close()
		r.in = nil
	}
	for _, c := range r.conns {
		c.closeIdle()
	}
	for _, d := range r.dirs {
		if rerr := os.RemoveAll(d); err == nil {
			err = rerr
		}
	}
	r.stageMeans()
	if r.cfg.trace {
		r.disagree()
	}
	share := 0.0
	if a := r.attempted(); a > 0 {
		share = float64(r.failed()) / float64(a)
	}
	r.ms.setN("failed_share", share, 0, int(r.attempted()))
	r.ms.fillZeros(r.cfg.trace)
	return err
}

func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
