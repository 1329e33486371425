package main

import "sort"

// metricDef names one metric the benchmark reports. The two tables below
// are the single source the printer, the results file, `compare` and the
// test that cross-checks BENCHMARK.json all read.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // relative worsening that counts as a regression (end-to-end only)
	// only restricts an end-to-end metric to one workload ("" = all).
	only string
	// demoted marks an end-to-end metric whose run-to-run spread on the
	// shared box exceeded every allowed bound in two A/A sets: `compare`
	// still judges it (and calls it unresolved when it is), the driver does
	// not gate on it.
	demoted bool
}

// endToEnd is the benchmark's own end-to-end table: what a client of the
// server sees, and what `compare` judges. BENCHMARK.json lists only the rows
// every workload reports, that are never 0 and that repeat within their
// bound (see contractEndToEnd) under end_to_end, and the rest among its
// per_layer names: the write-path rows exist on patch_mixed only,
// failed_share is 0 by design and travels as the contract's own
// attempted/failed pair, and the two latency rows are demoted for noise —
// in a closed loop of two connections answers_per_s already is 2 ÷ the mean
// latency, so the gate loses the shape of the distribution, not the level.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "answers_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "query_p50_us", unit: "us", better: "lower", bound: 0.25, demoted: true},
	{name: "query_p99_us", unit: "us", better: "lower", bound: 0.25, demoted: true},
	{name: "pi_bytes_per_data_byte", unit: "B/B", better: "lower", bound: 0.08},
	{name: "patches_per_s", unit: "1/s", better: "higher", bound: 0.15, only: "patch_mixed"},
	{name: "patch_p50_ms", unit: "ms", better: "lower", bound: 0.15, only: "patch_mixed"},
	{name: "reload_s", unit: "s", better: "lower", bound: 0.25, only: "patch_mixed"},
	{name: "failed_share", unit: "share", better: "lower", bound: 0},
}

// perLayer lists the per-layer metrics, named <module>.<metric> after the
// repository's packages. A metric a workload does not exercise reads 0.
var perLayer = []metricDef{
	// schemes / core (ladder)
	{name: "schemes.raw_answer_ns", unit: "ns"},
	{name: "schemes.raw_answer_allocs", unit: "count"},
	{name: "schemes.prepared_probe_ns", unit: "ns"},
	{name: "schemes.prepared_probe_allocs", unit: "count"},
	{name: "schemes.preprocess_s", unit: "s"},
	{name: "schemes.apply_delta_ms", unit: "ms"},
	// store (ladder)
	{name: "store.answer_ns", unit: "ns"},
	{name: "store.answer_allocs", unit: "count"},
	{name: "store.batch_ns_per_answer", unit: "ns"},
	{name: "store.deadline_guard_ns", unit: "ns"},
	{name: "store.deadline_guard_allocs", unit: "count"},
	{name: "store.breaker_ns", unit: "ns"},
	{name: "store.cache_hit_ns", unit: "ns"},
	{name: "store.cache_hit_allocs", unit: "count"},
	{name: "store.cache_miss_ns", unit: "ns"},
	{name: "store.cached_batch_ns_per_answer", unit: "ns"},
	{name: "store.cache_vs_probe_x", unit: "x"},
	{name: "store.wal_append_ms", unit: "ms"},
	{name: "store.patch_wal_only_ms", unit: "ms"},
	{name: "store.patch_checkpoint_ms", unit: "ms"},
	{name: "store.snapshot_encode_ms", unit: "ms"},
	{name: "store.snapshot_save_ms", unit: "ms"},
	{name: "store.snapshot_load_ms", unit: "ms"},
	{name: "store.log_replay_ms", unit: "ms"},
	{name: "store.warm_ms", unit: "ms"},
	{name: "store.snapshot_bytes_per_pi_byte", unit: "B/B"},
	// store (window counters)
	{name: "store.patch_p99_ms", unit: "ms"},
	{name: "store.log_replays", unit: "count"},
	{name: "store.preprocess_calls", unit: "count"},
	{name: "store.snapshot_loads", unit: "count"},
	// cache
	{name: "cache.lookup_hit_ns", unit: "ns"},
	{name: "cache.do_miss_ns", unit: "ns"},
	{name: "cache.hits", unit: "count"},
	{name: "cache.misses", unit: "count"},
	{name: "cache.hit_ratio", unit: "share"},
	{name: "cache.coalesced", unit: "count"},
	{name: "cache.evictions", unit: "count"},
	{name: "cache.resident_bytes", unit: "B"},
	// shard
	{name: "shard.answer_ns", unit: "ns"},
	{name: "shard.answer_allocs", unit: "count"},
	{name: "shard.batch_ns_per_answer", unit: "ns"},
	{name: "shard.build_s", unit: "s"},
	{name: "shard.slowdown_x", unit: "x"},
	{name: "shard.cross_shard_share", unit: "share"},
	// server
	{name: "server.wire_decode_ns", unit: "ns"},
	{name: "server.wire_decode_allocs", unit: "count"},
	{name: "server.wire_encode_ns", unit: "ns"},
	{name: "server.handler_ns", unit: "ns"},
	{name: "server.handler_allocs", unit: "count"},
	{name: "server.handler_self_ns", unit: "ns"},
	{name: "server.http_roundtrip_ns", unit: "ns"},
	{name: "server.net_self_ns", unit: "ns"},
	{name: "server.stats_scrape_ms", unit: "ms"},
	{name: "server.metrics_scrape_ms", unit: "ms"},
	{name: "server.rejected_429", unit: "count"},
	{name: "server.deadline_504", unit: "count"},
	{name: "server.breaker_503", unit: "count"},
	{name: "server.body_413", unit: "count"},
	// obs
	{name: "obs.overhead_pct", unit: "%"},
	{name: "obs.stage_admission_mean_ns", unit: "ns"},
	{name: "obs.stage_cache_hit_mean_ns", unit: "ns"},
	{name: "obs.stage_cache_miss_mean_ns", unit: "ns"},
	{name: "obs.stage_shard_fanout_mean_ns", unit: "ns"},
	{name: "obs.stage_shard_merge_mean_ns", unit: "ns"},
	{name: "obs.stage_patch_apply_mean_ns", unit: "ns"},
	{name: "obs.stage_patch_persist_mean_ns", unit: "ns"},
	{name: "obs.stage_log_append_mean_ns", unit: "ns"},
	{name: "obs.stage_log_replay_mean_ns", unit: "ns"},
	{name: "obs.stage_snapshot_load_mean_ns", unit: "ns"},
	{name: "obs.stage_snapshot_save_mean_ns", unit: "ns"},
	{name: "obs.stage_warm_mean_ns", unit: "ns"},
	{name: "obs.stage_preprocess_mean_ns", unit: "ns"},
	{name: "obs.stage_probe_dense_mean_ns", unit: "ns"},
	// proc / bench
	{name: "proc.cpu_us_per_answer", unit: "us"},
	{name: "proc.allocs_per_answer", unit: "count"},
	{name: "proc.alloc_bytes_per_answer", unit: "B"},
	{name: "proc.gc_pause_ms_total", unit: "ms"},
	{name: "proc.heap_inuse_mb", unit: "MB"},
	{name: "bench.oracle_s", unit: "s"},
	{name: "bench.segment_spread", unit: "share"},
	{name: "bench.window_answers_per_s", unit: "1/s"},
	{name: "bench.window_p50_us", unit: "us"},
	{name: "bench.recorder_floor_ns", unit: "ns"},
	{name: "bench.trace_overhead_pct", unit: "%"},
	{name: "bench.disagreements", unit: "count"},
}

// stageMetrics maps an obs stage label to its per-layer metric name.
var stageMetrics = map[string]string{
	"admission":     "obs.stage_admission_mean_ns",
	"cache_hit":     "obs.stage_cache_hit_mean_ns",
	"cache_miss":    "obs.stage_cache_miss_mean_ns",
	"shard_fanout":  "obs.stage_shard_fanout_mean_ns",
	"shard_merge":   "obs.stage_shard_merge_mean_ns",
	"patch_apply":   "obs.stage_patch_apply_mean_ns",
	"patch_persist": "obs.stage_patch_persist_mean_ns",
	"log_append":    "obs.stage_log_append_mean_ns",
	"log_replay":    "obs.stage_log_replay_mean_ns",
	"snapshot_load": "obs.stage_snapshot_load_mean_ns",
	"snapshot_save": "obs.stage_snapshot_save_mean_ns",
	"warm":          "obs.stage_warm_mean_ns",
	"preprocess":    "obs.stage_preprocess_mean_ns",
	"probe_dense":   "obs.stage_probe_dense_mean_ns",
}

// contractEndToEnd reports whether BENCHMARK.json lists d under end_to_end.
func contractEndToEnd(d metricDef) bool {
	return d.only == "" && !d.demoted && d.name != "failed_share"
}

// metric is one reported value. Spread is the IQR ÷ median of the
// per-segment (or per-chunk) values behind it, N the sample count.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
	N      int     `json:"n,omitempty"`
}

// metricSet collects one workload's metrics by name.
type metricSet map[string]metric

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.name] = d.unit
	}
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

// set records a metric; the unit comes from the tables, so a name missing
// there is a bug in the benchmark and panics.
func (ms metricSet) set(name string, value float64) {
	ms.setN(name, value, 0, 0)
}

func (ms metricSet) setN(name string, value, spread float64, n int) {
	unit, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not in the metric tables")
	}
	ms[name] = metric{Value: value, Unit: unit, Spread: spread, N: n}
}

// fillZeros gives every per-layer metric the workload did not exercise the
// value 0, so every run prints every name.
func (ms metricSet) fillZeros(trace bool) {
	for _, d := range endToEnd {
		if _, ok := ms[d.name]; !ok {
			ms.set(d.name, 0)
		}
	}
	if !trace {
		return
	}
	for _, d := range perLayer {
		if _, ok := ms[d.name]; !ok {
			ms.set(d.name, 0)
		}
	}
}

func (ms metricSet) names() []string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
