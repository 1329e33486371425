package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"pitract/internal/cache"
	"pitract/internal/core"
	"pitract/internal/obs"
	"pitract/internal/schemes"
	"pitract/internal/server"
	"pitract/internal/shard"
	"pitract/internal/store"
)

// The layer ladder: the per-layer numbers of a traced run. Every rung is an
// independent timed loop over the same requests, sampled from the
// workload's own traffic, calling one layer's public functions from here —
// no span is recorded inside the program. A rung runs in chunks; each chunk
// is one span. A rung's figure is the median over its chunks of time per
// call, and its self time that figure minus its children's.

// span is one timed chunk of one rung. Spans of one workload's ladder share
// a trace id; parent names the rung whose calls contain this rung's calls
// ("" for the root and for reference rungs, which the chain does not
// contain — the cost a miss, an unsharded store or a raw scheme would add).
type span struct {
	TraceID string `json:"trace_id"`
	Span    string `json:"span"`
	Parent  string `json:"parent"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Count   int    `json:"count"`
	Mallocs uint64 `json:"mallocs"`
}

// rungStat summarises one rung over its spans.
type rungStat struct {
	Span      string  `json:"span"`
	Parent    string  `json:"parent"`
	Layer     string  `json:"layer"`
	NsPerCall float64 `json:"ns_per_call"`
	Allocs    float64 `json:"allocs_per_call"`
	SelfNs    float64 `json:"self_ns"`
	Calls     int     `json:"calls"`
	Spread    float64 `json:"spread"`
}

type tracer struct {
	id    string
	base  time.Time
	spans []span
	rungs []*rungStat
}

// span times one chunk of count calls and records it.
func (t *tracer) span(name, parent, layer string, count int, chunk func()) span {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := time.Now()
	chunk()
	e := time.Now()
	runtime.ReadMemStats(&m1)
	sp := span{
		TraceID: t.id, Span: name, Parent: parent, Layer: layer,
		StartNs: s.Sub(t.base).Nanoseconds(), EndNs: e.Sub(t.base).Nanoseconds(),
		Count: count, Mallocs: m1.Mallocs - m0.Mallocs,
	}
	t.spans = append(t.spans, sp)
	return sp
}

// timed runs fn(i) for i = 0, 1, … in chunks for at least budget and at
// least minCalls calls, one span per chunk. i never repeats within a rung.
func (t *tracer) timed(name, parent, layer string, budget time.Duration, minCalls int, fn func(i int)) *rungStat {
	// Size the chunks from a short calibration so a rung has ~16 spans.
	c0 := time.Now()
	next := 0
	for next == 0 || (time.Since(c0) < budget/20 && next < 1<<16) {
		fn(next)
		next++
	}
	per := time.Since(c0) / time.Duration(next)
	chunk := 1
	if per > 0 && budget/16 > per {
		chunk = int(budget / 16 / per)
	}
	var perCall []float64
	var mallocs uint64
	calls := 0
	start := time.Now()
	for time.Since(start) < budget || calls < minCalls {
		sp := t.span(name, parent, layer, chunk, func() {
			for k := 0; k < chunk; k++ {
				fn(next + k)
			}
		})
		next += chunk
		calls += chunk
		mallocs += sp.Mallocs
		perCall = append(perCall, float64(sp.EndNs-sp.StartNs)/float64(chunk))
	}
	return t.summarise(name, parent, layer, perCall, float64(mallocs)/float64(calls), calls)
}

func (t *tracer) summarise(name, parent, layer string, perCall []float64, allocs float64, calls int) *rungStat {
	rs := &rungStat{Span: name, Parent: parent, Layer: layer, NsPerCall: median(perCall),
		Allocs: allocs, Calls: calls, Spread: spread(perCall)}
	t.rungs = append(t.rungs, rs)
	return rs
}

// selfTimes fills every rung's self time: its figure minus its children's.
func (t *tracer) selfTimes() {
	for _, r := range t.rungs {
		r.SelfNs = r.NsPerCall
		for _, c := range t.rungs {
			if c.Parent == r.Span {
				r.SelfNs -= c.NsPerCall
			}
		}
	}
}

// rungFailure carries an error out of a rung's loop body; ladder turns it
// back into an error.
type rungFailure struct{ err error }

func check(err error) {
	if err != nil {
		panic(rungFailure{err})
	}
}

// nullWriter is the in-memory recorder the handler rung answers into.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }

// serve pushes one request through h with an in-memory recorder.
func serve(h http.Handler, w *nullWriter, url string, body []byte) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	check(err)
	clear(w.h)
	w.status = 0
	h.ServeHTTP(w, req)
}

// ladderRun is one workload's traced pass: the sampled traffic and the
// layers' handles every rung shares.
type ladderRun struct {
	*tracer
	r      *run
	budget time.Duration // timed loop per rung
	batch  int

	// Up to 512 of the workload's own requests, spread evenly over its
	// pool: the bodies, the queries inside each, one query of each, and the
	// node pairs behind the queries of a graph workload.
	bodies  [][]byte
	batches [][][]byte
	singles [][]byte
	pairs   [][2]int

	scheme *core.Scheme
	ds     store.Dataset // the live dataset
	// ref is the dataset as one unsharded store: the live store, or on the
	// sharded workload a reference built from the same data
	// (shard.slowdown_x reads off the pair). prep is its Π.
	ref  *store.Store
	prep []byte
}

// put reports a rung as a metric of ns ÷ div per call.
func (l *ladderRun) put(name string, rs *rungStat, div float64) {
	l.r.ms.setN(name, rs.NsPerCall/div, rs.Spread, rs.Calls)
}

func (l *ladderRun) body(i int) []byte      { return l.bodies[i%len(l.bodies)] }
func (l *ladderRun) single(i int) []byte    { return l.singles[i%len(l.singles)] }
func (l *ladderRun) queries(i int) [][]byte { return l.batches[i%len(l.batches)] }

// ladder runs the rungs for this workload against its live server and
// writes <out>/<workload>.trace.json.
func (r *run) ladder() (err error) {
	defer func() {
		if p := recover(); p != nil {
			f, ok := p.(rungFailure)
			if !ok {
				panic(p)
			}
			err = fmt.Errorf("%s: ladder: %w", r.sp.name, f.err)
		}
	}()
	l := &ladderRun{
		tracer: &tracer{id: fmt.Sprintf("%s-seed%d", r.sp.name, r.cfg.seed), base: time.Now()},
		r:      r, budget: r.cfg.rungTime, batch: r.sp.batch,
		scheme: server.Catalog()[r.sp.scheme],
	}
	l.sample()
	l.setupSide()
	l.readSide()
	l.scrapes()
	if r.sp.writer {
		l.writeSide()
	}
	l.selfTimes()
	return writeJSON(filepath.Join(r.cfg.outDir, r.sp.name+".trace.json"), struct {
		TraceID string      `json:"trace_id"`
		Rungs   []*rungStat `json:"rungs"`
		Spans   []span      `json:"spans"`
	}{l.id, l.rungs, l.spans})
}

func (l *ladderRun) sample() {
	r := l.r
	n := len(r.reqs)
	if n > 512 {
		n = 512
	}
	for i := 0; i < n; i++ {
		at := i * len(r.reqs) / n
		l.bodies = append(l.bodies, r.reqs[at].body)
		qs := make([][]byte, l.batch)
		for j := range qs {
			qi := r.ds.plan[at*l.batch+j]
			qs[j] = r.ds.queries[qi]
			if r.ds.pairs != nil {
				l.pairs = append(l.pairs, r.ds.pairs[qi])
			}
		}
		l.batches = append(l.batches, qs)
		l.singles = append(l.singles, qs[0])
	}
}

// setupSide times what a registration is made of: Π from scratch, its
// prepared form, the snapshot codec.
func (l *ladderRun) setupSide() {
	r := l.r
	var times []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		pd, err := l.scheme.Preprocess(r.ds.data)
		check(err)
		times = append(times, time.Since(t0).Seconds())
		l.prep = pd
		if r.cfg.quick {
			break
		}
	}
	r.ms.setN("schemes.preprocess_s", median(times), spread(times), len(times))

	ds, ok := r.in.reg.GetDataset(datasetID)
	if !ok {
		check(fmt.Errorf("dataset not registered"))
	}
	l.ds = ds
	if st, ok := ds.(*store.Store); ok {
		l.ref = st
		l.prep, _ = st.View()
	} else {
		l.ref = &store.Store{ID: "ref", Scheme: l.scheme, Prep: l.prep, DataSum: store.SumData(r.ds.data)}
	}
	warm := l.timed("store.warm", "", "store", l.budget/4, 3, func(int) {
		(&store.Store{Scheme: l.scheme, Prep: l.prep}).Warm()
	})
	l.put("store.warm_ms", warm, 1e6)
	var encoded []byte
	enc := l.timed("store.snapshot_encode", "", "store", l.budget/4, 3, func(int) {
		encoded = store.EncodeSnapshot(l.ref.Snapshot())
	})
	l.put("store.snapshot_encode_ms", enc, 1e6)
	r.ms.set("store.snapshot_bytes_per_pi_byte", float64(len(encoded))/float64(len(l.prep)))
}

// answer is one request's worth of answering against d: the batch on a
// batch workload, a single query otherwise.
func (l *ladderRun) answer(d store.Dataset) func(int) {
	return func(i int) {
		var err error
		if l.batch > 1 {
			_, err = d.AnswerBatch(l.queries(i), 0)
		} else {
			_, err = d.Answer(l.single(i))
		}
		check(err)
	}
}

// readSide runs the read chain outermost first, then the reference rungs
// and the pieces of the handler's self time, and derives the rows that are
// differences or ratios of rungs.
func (l *ladderRun) readSide() {
	r := l.r
	perAnswer := float64(l.batch)
	url := r.in.url + r.sp.queryPath()
	c := r.conns[0]
	roundtrip := func(i int) {
		status, _, err := c.do(http.MethodPost, url, l.body(i))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("http.roundtrip: status %d", status)
		}
		check(err)
	}
	rt := l.timed("http.roundtrip", "", "server", l.budget, 16, roundtrip)
	l.put("server.http_roundtrip_ns", rt, 1)
	// The same loop with no span around it: what tracing itself costs.
	u0, un := time.Now(), 0
	for ; un < 16 || time.Since(u0) < l.budget; un++ {
		roundtrip(un)
	}
	untraced := float64(time.Since(u0).Nanoseconds()) / float64(un)
	r.ms.set("bench.trace_overhead_pct", 100*(rt.NsPerCall-untraced)/untraced)

	w := &nullWriter{h: http.Header{}}
	handler := r.in.srv.Handler()
	handle := func(i int) {
		serve(handler, w, url, l.body(i))
		if w.status != http.StatusOK {
			check(fmt.Errorf("server.handler: status %d", w.status))
		}
	}
	hd := l.timed("server.handler", "http.roundtrip", "server", l.budget, 16, handle)
	l.put("server.handler_ns", hd, 1)
	r.ms.set("server.handler_allocs", hd.Allocs)
	noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	floor := l.timed("bench.recorder_floor", "", "bench", l.budget/2, 16, func(i int) { serve(noop, w, url, l.body(i)) })
	l.put("bench.recorder_floor_ns", floor, 1)

	// What the handler answers through: the dataset, behind the cache when
	// the server has one, under the query budget when it has one.
	view := l.ds
	if r.in.cache != nil {
		view = store.NewCachedDataset(l.ds, r.in.cache)
	}
	qbudget := r.sp.limits.QueryBudget
	within := l.timed("store.answer_within", "server.handler", "store", l.budget, 16, func(i int) {
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		if qbudget > 0 {
			ctx, cancel = context.WithTimeout(ctx, qbudget)
		}
		var err error
		if l.batch > 1 {
			_, _, err = store.AnswerBatchWithin(ctx, view, l.queries(i), 0)
		} else {
			_, err = store.AnswerWithin(ctx, view, l.single(i))
		}
		cancel()
		check(err)
	})
	r.ms.set("server.handler_self_ns", hd.NsPerCall-floor.NsPerCall-within.NsPerCall)
	r.ms.set("server.net_self_ns", rt.NsPerCall-hd.NsPerCall)

	// hang is the rung the dataset's own answer hangs under. Behind a cache
	// every sampled key is resident after the first cycle, so the cached
	// rung is the hit path and ends the chain; the rungs below it are then
	// reference rungs, as are the unsharded ones on the sharded workload.
	hang := within.Span
	if r.in.cache != nil {
		cached := l.timed("store.cached", hang, "store", l.budget, 16, l.answer(view))
		if l.batch > 1 {
			l.put("store.cached_batch_ns_per_answer", cached, perAnswer)
		}
		hang = ""
	}
	if sharded, ok := l.ds.(*shard.ShardedStore); ok {
		l.shardRungs(sharded, hang)
		hang = ""
	}
	if l.batch > 1 {
		l.put("store.batch_ns_per_answer", l.timed("store.answer_batch", hang, "store", l.budget, 16, l.answer(l.ref)), perAnswer)
		hang = ""
	}
	ans := l.timed("store.answer", hang, "store", l.budget, 16, func(i int) {
		_, err := l.ref.Answer(l.single(i))
		check(err)
	})
	l.put("store.answer_ns", ans, 1)
	r.ms.set("store.answer_allocs", ans.Allocs)
	if qbudget > 0 {
		r.ms.set("store.deadline_guard_ns", within.NsPerCall-ans.NsPerCall)
		r.ms.set("store.deadline_guard_allocs", within.Allocs-ans.Allocs)
	}
	if v := r.ms["shard.answer_ns"].Value; v > 0 {
		r.ms.set("shard.slowdown_x", v/ans.NsPerCall)
	}
	prepared, err := l.scheme.Prepare(l.prep)
	check(err)
	probe := l.timed("schemes.prepared_probe", "store.answer", "schemes", l.budget, 16, func(i int) {
		_, err := prepared.Answer(l.single(i))
		check(err)
	})
	l.put("schemes.prepared_probe_ns", probe, 1)
	r.ms.set("schemes.prepared_probe_allocs", probe.Allocs)
	raw := l.timed("schemes.raw_answer", "", "schemes", l.budget, 16, func(i int) {
		_, err := l.scheme.Answer(l.prep, l.single(i))
		check(err)
	})
	l.put("schemes.raw_answer_ns", raw, 1)
	r.ms.set("schemes.raw_answer_allocs", raw.Allocs)

	l.handlerPieces()
	if r.in.cache != nil {
		l.cacheAlone(ans)
	}

	// obs on against obs off, alternating chunk by chunk so drift cancels.
	var on, off []float64
	chunk := 1 + int(float64(l.budget.Nanoseconds())/8/hd.NsPerCall)
	for k := 0; k < 32; k++ {
		obs.SetEnabled(k%2 == 0)
		s := time.Now()
		for i := 0; i < chunk; i++ {
			handle(i)
		}
		per := float64(time.Since(s).Nanoseconds()) / float64(chunk)
		if k%2 == 0 {
			on = append(on, per)
		} else {
			off = append(off, per)
		}
	}
	obs.SetEnabled(true)
	r.ms.set("obs.overhead_pct", 100*(median(on)-median(off))/median(off))
}

func (l *ladderRun) shardRungs(sharded *shard.ShardedStore, hang string) {
	r := l.r
	l.put("shard.batch_ns_per_answer", l.timed("shard.answer", hang, "shard", l.budget, 16, l.answer(sharded)), float64(l.batch))
	one := l.timed("shard.answer.single", "", "shard", l.budget, 16, func(i int) {
		_, err := sharded.Answer(l.single(i))
		check(err)
	})
	l.put("shard.answer_ns", one, 1)
	r.ms.set("shard.answer_allocs", one.Allocs)
	cross := 0
	for _, p := range l.pairs {
		if sharded.Asn.Shard(int64(p[0])) != sharded.Asn.Shard(int64(p[1])) {
			cross++
		}
	}
	r.ms.set("shard.cross_shard_share", float64(cross)/float64(len(l.pairs)))
	p, err := shard.PartitionerByName(sharded.Partitioner)
	check(err)
	t0 := time.Now()
	_, err = shard.Build("ref-sharded", l.scheme, shard.ForScheme(r.sp.scheme), p, sharded.ShardCount(), r.ds.data)
	check(err)
	r.ms.set("shard.build_s", time.Since(t0).Seconds())
}

// handlerPieces times parts of the handler's self time, each on its own.
func (l *ladderRun) handlerPieces() {
	r := l.r
	l.put("store.breaker_ns", l.timed("store.breaker", "", "store", l.budget/2, 16, func(int) {
		b := r.in.reg.Breaker(datasetID)
		dec := b.Allow()
		b.OnSuccess(dec.Probe)
	}), 1)
	dec := l.timed("server.wire_decode", "", "server", l.budget/2, 16, func(i int) {
		if l.batch > 1 {
			check(json.Unmarshal(l.body(i), new(server.BatchRequest)))
		} else {
			check(json.Unmarshal(l.body(i), new(server.QueryRequest)))
		}
	})
	l.put("server.wire_decode_ns", dec, 1)
	r.ms.set("server.wire_decode_allocs", dec.Allocs)
	answers := r.reqs[0].want
	l.put("server.wire_encode_ns", l.timed("server.wire_encode", "", "server", l.budget/2, 16, func(int) {
		var err error
		if l.batch > 1 {
			_, err = json.Marshal(server.BatchResponse{Answers: answers, Version: 1})
		} else {
			_, err = json.Marshal(server.QueryResponse{Answer: answers[0], Version: 1})
		}
		check(err)
	}), 1)
}

// cacheAlone times the cache layer on a cache of the ladder's own, so the
// server's counters stay what the window left.
func (l *ladderRun) cacheAlone(ans *rungStat) {
	r := l.r
	lc := cache.New(64 << 20)
	view := store.NewCachedDataset(l.ref, lc)
	for _, q := range l.singles {
		_, err := view.Answer(q)
		check(err)
	}
	hit := l.timed("store.cache_hit", "", "store", l.budget, 16, func(i int) {
		_, err := view.Answer(l.single(i))
		check(err)
	})
	l.put("store.cache_hit_ns", hit, 1)
	r.ms.set("store.cache_hit_allocs", hit.Allocs)
	r.ms.set("store.cache_vs_probe_x", hit.NsPerCall/ans.NsPerCall)
	l.put("cache.lookup_hit_ns", l.timed("cache.lookup_hit", "", "cache", l.budget/2, 16, func(i int) {
		if _, ok := lc.Lookup(l.ref.DatasetID(), l.ref.Version(), l.single(i)); !ok {
			check(fmt.Errorf("cache.lookup_hit: resident key missing"))
		}
	}), 1)
	// Misses need fresh keys: the call index rides in the version, so no key
	// is ever asked twice.
	l.put("store.cache_miss_ns", l.timed("store.cache_miss", "", "store", l.budget, 16, func(i int) {
		q := l.single(i)
		_, err := lc.Do("miss", uint64(i), q, func() (bool, error) { return l.ref.Answer(q) })
		check(err)
	}), 1)
	lc = cache.New(64 << 20)
	l.put("cache.do_miss_ns", l.timed("cache.do_miss", "", "cache", l.budget/2, 16, func(i int) {
		_, err := lc.Do("miss", uint64(i), l.single(i), func() (bool, error) { return true, nil })
		check(err)
	}), 1)
}

// scrapes times the observability endpoints with this workload's dataset
// registered.
func (l *ladderRun) scrapes() {
	c := l.r.conns[0]
	for _, ep := range [][2]string{{"/v1/stats", "server.stats_scrape_ms"}, {"/metrics", "server.metrics_scrape_ms"}} {
		u := l.r.in.url + ep[0]
		l.put(ep[1], l.timed("server.scrape"+ep[0], "", "server", l.budget/4, 3, func(int) {
			status, _, err := c.do(http.MethodGet, u, nil)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("GET %s: status %d", ep[0], status)
			}
			check(err)
		}), 1e6)
	}
}

// writeSide runs the write rungs of a writer workload against a second
// server of the same configuration on a directory of its own, so the live
// one keeps the version and log the restart leg expects.
func (l *ladderRun) writeSide() {
	r := l.r
	dir, err := r.dataDir("ladder")
	check(err)
	in, err := startInstance(r.sp, dir)
	check(err)
	defer in.close() // a scratch server: nothing to report if its drain fails
	c := newConn()
	defer c.closeIdle()
	status, body, err := c.do(http.MethodPost, in.url+"/v1/datasets", r.regBody)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("register: status %d: %.120s", status, body)
	}
	check(err)

	every := r.sp.checkpointEvery
	next := 0 // PATCH index on this server; PATCH i is the (i+1)-th log record
	delta := func(i int) [][]byte { return [][]byte{patchDelta(r.ds.space, i)} }
	// each makes n calls, one per span: a call that crosses the checkpoint
	// cadence is a different rung from one that only appends to the log.
	each := func(name, parent string, n int, fn func(i int) error) (walOnly, checkpoint *rungStat) {
		var wal, ckpt []float64
		for ; n > 0; n-- {
			crosses := (next+1)%every == 0
			span, par := name, parent
			if crosses {
				span, par = name+".checkpoint", ""
			}
			sp := l.span(span, par, "store", 1, func() { check(fn(next)) })
			next++
			if crosses {
				ckpt = append(ckpt, float64(sp.EndNs-sp.StartNs))
			} else {
				wal = append(wal, float64(sp.EndNs-sp.StartNs))
			}
		}
		return l.summarise(name, parent, "store", wal, 0, len(wal)),
			l.summarise(name+".checkpoint", "", "store", ckpt, 0, len(ckpt))
	}
	n := 2*every + 1
	if r.cfg.quick {
		n = every + 1
	}
	each("http.patch", "", n, func(i int) error {
		status, resp, err := c.do(http.MethodPatch, in.url+"/v1/datasets/"+datasetID, patchBody(r.ds.space, i))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("PATCH %d: status %d: %.120s", i, status, resp)
		}
		return err
	})
	wal, ckpt := each("store.registry_apply_delta", "http.patch", n, func(i int) error {
		_, err := in.reg.ApplyDelta(datasetID, delta(i))
		return err
	})
	l.put("store.patch_wal_only_ms", wal, 1e6)
	l.put("store.patch_checkpoint_ms", ckpt, 1e6)

	st, ok := in.reg.Get(datasetID)
	if !ok {
		check(fmt.Errorf("write side: dataset vanished"))
	}
	prep, version := st.View()
	inc := schemes.IncrementalForScheme(r.sp.scheme)
	scratch := filepath.Join(dir, "scratch")
	l.put("store.wal_append_ms", l.timed("store.wal_append", wal.Span, "store", l.budget, 8, func(i int) {
		check(store.AppendLogRecord(store.OSFS, scratch+".log", uint64(i), delta(i)))
	}), 1e6)
	l.put("schemes.apply_delta_ms", l.timed("schemes.apply_delta", wal.Span, "schemes", l.budget, 8, func(i int) {
		_, err := inc.ApplyDelta(prep, patchDelta(r.ds.space, next+i))
		check(err)
	}), 1e6)
	snap := &store.Snapshot{SchemeName: l.scheme.Name(), DataSum: st.DataSum, Version: version, Prep: prep}
	l.put("store.snapshot_save_ms", l.timed("store.snapshot_save", ckpt.Span, "store", l.budget, 3, func(int) {
		check(store.SaveFS(store.OSFS, scratch+".pitract", snap))
	}), 1e6)
	l.put("store.snapshot_load_ms", l.timed("store.snapshot_load", "", "store", l.budget, 3, func(int) {
		_, err := store.LoadFS(store.OSFS, scratch+".pitract")
		check(err)
	}), 1e6)
	// What a restart replays: a log of cadence−1 records over the snapshot.
	for i := 0; i < every-1; i++ {
		check(store.AppendLogRecord(store.OSFS, scratch+".replay", uint64(i), delta(next+i)))
	}
	l.put("store.log_replay_ms", l.timed("store.log_replay", "", "store", l.budget, 3, func(int) {
		recs, err := store.ReadLog(store.OSFS, scratch+".replay")
		if err == nil && len(recs) != every-1 {
			err = fmt.Errorf("store.log_replay: read %d records, wrote %d", len(recs), every-1)
		}
		check(err)
		cur := prep
		for _, rec := range recs {
			for _, d := range rec.Deltas {
				cur, err = inc.ApplyDelta(cur, d)
				check(err)
			}
		}
	}), 1e6)
}

// disagree lists the stage means of the program's own account that differ
// from their ladder row by more than 2× either way. Which of the two is
// wrong is for a later change to find out.
func (r *run) disagree() {
	pairs := []struct {
		stage, row string
		scale      float64 // ladder unit in ns
	}{
		{"obs.stage_cache_hit_mean_ns", "store.cache_hit_ns", 1},
		{"obs.stage_cache_miss_mean_ns", "store.cache_miss_ns", 1},
		{"obs.stage_log_append_mean_ns", "store.wal_append_ms", 1e6},
		{"obs.stage_patch_apply_mean_ns", "schemes.apply_delta_ms", 1e6},
		{"obs.stage_log_replay_mean_ns", "store.log_replay_ms", 1e6},
		{"obs.stage_snapshot_load_mean_ns", "store.snapshot_load_ms", 1e6},
		{"obs.stage_snapshot_save_mean_ns", "store.snapshot_save_ms", 1e6},
		{"obs.stage_warm_mean_ns", "store.warm_ms", 1e6},
		{"obs.stage_preprocess_mean_ns", "schemes.preprocess_s", 1e9},
	}
	for _, p := range pairs {
		stage, row := r.ms[p.stage].Value, r.ms[p.row].Value*p.scale
		// Below 100 ns the two clock reads around a stage are the stage; and
		// a sharded workload's stages time one shard where the ladder row
		// times the whole dataset.
		if stage <= 0 || row < 100 || (r.sp.registerQuery != "" && p.scale > 1) {
			continue
		}
		if x := math.Max(stage/row, row/stage); x > 2 {
			r.disagreements = append(r.disagreements,
				fmt.Sprintf("%s = %.4g ns but %s = %.4g ns (%.1f× apart)", p.stage, stage, p.row, row, x))
		}
	}
	r.ms.set("bench.disagreements", float64(len(r.disagreements)))
}
