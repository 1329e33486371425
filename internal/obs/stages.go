package obs

// Family names rendered by the Default registry. Every serve-path stage
// records into one histogram family keyed by a stage label; per-scheme
// answer latency gets its own family keyed by scheme so /v1/stats can
// report percentiles next to the existing per-scheme totals.
const (
	StageFamily  = "pitract_stage_duration_seconds"
	AnswerFamily = "pitract_answer_duration_seconds"
)

// Stage label values. One constant per instrumented serve-path stage; the
// instrumenting packages hold the returned *Histogram in package-level vars
// so the registry lookup happens once per process, not per request.
const (
	StageAdmission    = "admission"     // envelope admission wait + decision
	StageCacheHit     = "cache_hit"     // answer served from the version-keyed cache (incl. coalesced waits)
	StageCacheMiss    = "cache_miss"    // cache miss: underlying answer computed and inserted
	StageShardFanout  = "shard_fanout"  // cross-shard fan-out of one query to every shard store
	StageShardMerge   = "shard_merge"   // scheme-specific merge of per-shard verdicts
	StagePreprocess   = "preprocess"    // scheme Preprocess during registration or rebuild
	StageSnapshotLoad = "snapshot_load" // reading + verifying a Π snapshot from disk
	StageSnapshotSave = "snapshot_save" // atomic snapshot write (including fsync)
	StageWarm         = "warm"          // decoding Π into its prepared in-memory form
	StagePatchApply   = "patch_apply"   // staging a PATCH batch: incremental ApplyDelta + preparing the maintained Π's answerer(s)
	StagePatchPersist = "patch_persist" // checkpointing the maintained Π after a PATCH
	StageLogAppend    = "log_append"    // CRC-framed delta-log append + fsync (the PATCH commit point)
	StageLogReplay    = "log_replay"    // replaying the delta-log tail over a loaded snapshot at open
	StageProbeDense   = "probe_dense"   // reachability answered by the closure-matrix scheme (the name predates its storage over the condensation; the benchmark reads it)
	StageProbeLabel   = "probe_label"   // reachability answered by the succinct 2-hop labels scheme
)

// Stage returns the Default-registry histogram for one serve-path stage.
func Stage(name string) *Histogram {
	return Default.Histogram(StageFamily,
		"Latency of each internal serve-path stage, labeled by stage.",
		Label{Key: "stage", Value: name})
}

// AnswerHistogram returns the Default-registry per-scheme answer-latency
// histogram feeding the /v1/stats percentile columns.
func AnswerHistogram(scheme string) *Histogram {
	return Default.Histogram(AnswerFamily,
		"End-to-end answer latency of the query handlers, labeled by scheme.",
		Label{Key: "scheme", Value: scheme})
}
