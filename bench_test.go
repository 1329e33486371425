package pitract

// One benchmark per experiment id (regenerating the corresponding paper
// artifact end to end at Quick scale), plus fine-grained per-operation
// benchmarks for the answering paths whose polylog/constant growth the
// paper claims. Run with:
//
//	go test -bench=. -benchmem
//
// The per-op benchmarks report the interesting number directly (ns per
// answered query after preprocessing); the experiment benchmarks bound the
// cost of regenerating each table.

import (
	"io"
	"math/rand"
	"testing"

	"pitract/internal/harness"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(harness.Quick)
		if err != nil {
			b.Fatal(err)
		}
		tbl.Render(io.Discard)
	}
}

func BenchmarkE1_PointSelection(b *testing.B)     { benchExperiment(b, "E1") }
func BenchmarkF1_BDSFactorizations(b *testing.B)  { benchExperiment(b, "F1") }
func BenchmarkF2_Landscape(b *testing.B)          { benchExperiment(b, "F2") }
func BenchmarkE3b_Reachability(b *testing.B)      { benchExperiment(b, "E3") }
func BenchmarkC1_RangeSelection(b *testing.B)     { benchExperiment(b, "C1") }
func BenchmarkC2_ListSearch(b *testing.B)         { benchExperiment(b, "C2") }
func BenchmarkC3_RMQ(b *testing.B)                { benchExperiment(b, "C3") }
func BenchmarkC4_LCA(b *testing.B)                { benchExperiment(b, "C4") }
func BenchmarkC5_Compression(b *testing.B)        { benchExperiment(b, "C5") }
func BenchmarkC6_Views(b *testing.B)              { benchExperiment(b, "C6") }
func BenchmarkC7_Incremental(b *testing.B)        { benchExperiment(b, "C7") }
func BenchmarkC8_CVP(b *testing.B)                { benchExperiment(b, "C8") }
func BenchmarkC9_VertexCover(b *testing.B)        { benchExperiment(b, "C9") }
func BenchmarkC10_TopK(b *testing.B)              { benchExperiment(b, "C10") }
func BenchmarkC11_IncrementalPrep(b *testing.B)   { benchExperiment(b, "C11") }
func BenchmarkC12_FuncAndRewriting(b *testing.B)  { benchExperiment(b, "C12") }
func BenchmarkT5_CompletenessChain(b *testing.B)  { benchExperiment(b, "T5") }
func BenchmarkL2_Composition(b *testing.B)        { benchExperiment(b, "L2") }
func BenchmarkT9_Separation(b *testing.B)         { benchExperiment(b, "T9") }
func BenchmarkP10_FReductions(b *testing.B)       { benchExperiment(b, "P10") }
func BenchmarkA1_ClosureAblation(b *testing.B)    { benchExperiment(b, "A1") }
func BenchmarkA2_BTreeFanout(b *testing.B)        { benchExperiment(b, "A2") }
func BenchmarkA3_RMQAblation(b *testing.B)        { benchExperiment(b, "A3") }
func BenchmarkX1_ParallelPRAM(b *testing.B)       { benchExperiment(b, "X1") }
func BenchmarkX2_BatchAnswering(b *testing.B)     { benchExperiment(b, "X2") }
func BenchmarkX3_Serving(b *testing.B)            { benchExperiment(b, "X3") }
func BenchmarkX4_Sharding(b *testing.B)           { benchExperiment(b, "X4") }
func BenchmarkX5_IncrementalServing(b *testing.B) { benchExperiment(b, "X5") }

// BenchmarkX6 regenerates the hot-path cache experiment and reports its
// headline numbers — the repeated-query (bfs, hot-mix) cached-vs-uncached
// speedup and the cache hit ratio — as benchmark metrics, so the benchmark output
// tracks the cache's measured payoff from this PR on.
func BenchmarkX6(b *testing.B) {
	var speedup, hitRatio float64
	for i := 0; i < b.N; i++ {
		var err error
		speedup, hitRatio, err = harness.X6CachedSpeedup(harness.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(speedup, "cached-speedup-x")
	b.ReportMetric(hitRatio, "hit-ratio")
}

func BenchmarkX6_HotPathCache(b *testing.B) { benchExperiment(b, "X6") }

// BenchmarkX7 regenerates the serving-envelope load experiment and reports
// its headline numbers — the admitted p99 latency and the rejection rate
// over the overload zipf mix — as benchmark metrics, so the benchmark output
// tracks how the envelope degrades under pressure from this PR on.
func BenchmarkX7(b *testing.B) {
	var p99Ms, rejectedRate float64
	for i := 0; i < b.N; i++ {
		var err error
		p99Ms, rejectedRate, err = harness.X7EnvelopeMetrics(harness.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p99Ms, "admitted-p99-ms")
	b.ReportMetric(rejectedRate, "rejection-rate")
}

func BenchmarkX7_Envelope(b *testing.B) { benchExperiment(b, "X7") }

// BenchmarkX8 regenerates the observability-overhead experiment and
// reports its headline numbers — the relative QPS cost of instrumentation
// and the instrumented QPS — as benchmark metrics, so the benchmark output tracks
// what the metrics layer itself costs from this PR on.
func BenchmarkX8(b *testing.B) {
	var overheadPct, qps float64
	for i := 0; i < b.N; i++ {
		var err error
		overheadPct, qps, err = harness.X8OverheadMetrics(harness.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(overheadPct, "obs-overhead-pct")
	b.ReportMetric(qps, "instrumented-qps")
}

func BenchmarkX8_ObsOverhead(b *testing.B) { benchExperiment(b, "X8") }

// BenchmarkX9 regenerates the full-dynamism experiment and reports its
// headline numbers — the delete-heavy maintain-vs-rebuild speedup and the
// delta-log crash-replay wall time — as benchmark metrics, so
// the benchmark output tracks what dynamism costs (and saves) from this PR on.
func BenchmarkX9(b *testing.B) {
	var speedup, replayMs float64
	for i := 0; i < b.N; i++ {
		var err error
		speedup, replayMs, err = harness.X9DynamismMetrics(harness.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(speedup, "delete-maintain-speedup-x")
	b.ReportMetric(replayMs, "replay-ms")
}

func BenchmarkX9_FullDynamism(b *testing.B) { benchExperiment(b, "X9") }

// BenchmarkX10 regenerates the succinct-Π experiment and reports its
// headline numbers — the dense/labels snapshot-bytes ratio and the
// labeled-probe latency next to the dense probe it replaces — as benchmark
// metrics, so the benchmark output tracks what the compressed artifact costs (and
// saves) from this PR on.
func BenchmarkX10(b *testing.B) {
	var snapRatio, labelNs, denseNs float64
	for i := 0; i < b.N; i++ {
		var err error
		snapRatio, labelNs, denseNs, err = harness.X10SuccinctMetrics(harness.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(snapRatio, "snapshot-ratio-x")
	b.ReportMetric(labelNs, "label-probe-ns")
	b.ReportMetric(denseNs, "dense-probe-ns")
}

func BenchmarkX10_Succinct(b *testing.B) { benchExperiment(b, "X10") }

// BenchmarkX11 regenerates the serve-path chaos experiment and reports its
// headline numbers — how long a tripped breaker took to serve again after
// the fault cleared, and the degraded-answer rate while the fallback
// carried the traffic — as benchmark metrics, so the benchmark output tracks
// recovery behavior from this PR on.
func BenchmarkX11(b *testing.B) {
	var recoveryMs, degradedRate float64
	for i := 0; i < b.N; i++ {
		var err error
		recoveryMs, degradedRate, err = harness.X11ChaosMetrics(harness.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(recoveryMs, "breaker-recovery-ms")
	b.ReportMetric(degradedRate, "degraded-rate")
}

func BenchmarkX11_Chaos(b *testing.B) { benchExperiment(b, "X11") }

// BenchmarkOpShardedReachAnswer measures one sharded reachability answer
// (4 range-partitioned shards, portal reach rows merge) against the same
// query mix BenchmarkOpReachabilityAnswer-style benchmarks use, so the
// sharding overhead per query is visible next to the O(1) unsharded read.
func BenchmarkOpShardedReachAnswer(b *testing.B) {
	g := CommunityGraph(8, 128, 256, 9)
	ss, err := BuildShardedStore("bench", ReachabilityScheme(), NewRangePartitioner(), 4, g.Encode())
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]byte, 256)
	rng := rand.New(rand.NewSource(6))
	for i := range queries {
		queries[i] = NodePairQuery(rng.Intn(g.N()), rng.Intn(g.N()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ss.Answer(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpPreparedReachAnswer measures one reachability answer through
// the prepared (decoded-once) store path — the hot-path sibling of
// BenchmarkOpReachabilityAnswer's raw Scheme.Answer, so the payoff of
// hoisting the per-query header parse and validation is visible in
// the benchmark output.
func BenchmarkOpPreparedReachAnswer(b *testing.B) {
	g := RandomDirected(1<<11, 4<<11, 5)
	reg := NewStoreRegistry("")
	st, err := reg.Register("bench-prepared", ReachabilityScheme(), g.Encode())
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]byte, 256)
	rng := rand.New(rand.NewSource(6))
	for i := range queries {
		queries[i] = NodePairQuery(rng.Intn(1<<11), rng.Intn(1<<11))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Answer(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpCachedAnswer measures one answer through the verdict cache in
// steady state (every key resident): a BFS-per-query store whose uncached
// answers cost O(|V|+|E|), served as LRU hits.
func BenchmarkOpCachedAnswer(b *testing.B) {
	g := RandomDirected(1<<10, 4<<10, 17)
	reg := NewStoreRegistry("")
	st, err := reg.Register("bench-cached", ReachabilityBFSScheme(), g.Encode())
	if err != nil {
		b.Fatal(err)
	}
	cd := NewCachedDataset(st, NewAnswerCache(1<<22))
	queries := make([][]byte, 256)
	rng := rand.New(rand.NewSource(18))
	for i := range queries {
		queries[i] = NodePairQuery(rng.Intn(1<<10), rng.Intn(1<<10))
	}
	for _, q := range queries { // warm the cache: the loop measures hits
		if _, err := cd.Answer(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cd.Answer(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- per-operation benchmarks: the answering paths ---------------------------

// BenchmarkOpPointSelectionAnswer measures one O(log|D|) point-selection
// answer over a preprocessed 64k-row relation.
func BenchmarkOpPointSelectionAnswer(b *testing.B) {
	rel := GenerateRelation(RelationGenConfig{Rows: 1 << 16, Seed: 1, KeyMax: 1 << 17})
	scheme := PointSelectionScheme()
	prep, err := scheme.Preprocess(rel.Encode())
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]byte, 256)
	rng := rand.New(rand.NewSource(2))
	for i := range queries {
		queries[i] = PointQuery(rng.Int63n(1 << 18))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheme.Answer(prep, queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpBDSAnswer measures one O(1) BDS order answer over a
// preprocessed 16k-vertex graph (Figure 1, Υ_BDS row).
func BenchmarkOpBDSAnswer(b *testing.B) {
	g := RandomConnectedUndirected(1<<14, 3<<14, 3)
	scheme := BDSScheme()
	prep, err := scheme.Preprocess(g.Encode())
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]byte, 256)
	rng := rand.New(rand.NewSource(4))
	for i := range queries {
		queries[i] = NodePairQuery(rng.Intn(1<<14), rng.Intn(1<<14))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheme.Answer(prep, queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpBDSNaive measures the Υ′ row: a full search per query on a
// 4k-vertex graph.
func BenchmarkOpBDSNaive(b *testing.B) {
	g := RandomConnectedUndirected(1<<12, 3<<12, 3)
	d := g.Encode()
	scheme := BDSNoPreprocessScheme()
	queries := make([][]byte, 32)
	rng := rand.New(rand.NewSource(4))
	for i := range queries {
		queries[i] = PadPair(d, NodePairQuery(rng.Intn(1<<12), rng.Intn(1<<12)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheme.Answer(nil, queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpReachabilityAnswer measures one O(1) closure-matrix read over
// a preprocessed 2k-vertex digraph.
func BenchmarkOpReachabilityAnswer(b *testing.B) {
	g := RandomDirected(1<<11, 4<<11, 5)
	scheme := ReachabilityScheme()
	prep, err := scheme.Preprocess(g.Encode())
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]byte, 256)
	rng := rand.New(rand.NewSource(6))
	for i := range queries {
		queries[i] = NodePairQuery(rng.Intn(1<<11), rng.Intn(1<<11))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheme.Answer(prep, queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpCVPGateReadout measures one O(1) gate-value read over a
// preprocessed 64k-gate CVP instance (the C8 fast path).
func BenchmarkOpCVPGateReadout(b *testing.B) {
	inst := cvpInstance(1 << 16)
	scheme := CVPGateValueScheme()
	prep, err := scheme.Preprocess(inst)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]byte, 256)
	rng := rand.New(rand.NewSource(8))
	for i := range queries {
		queries[i] = GateQuery(rng.Intn(1 << 16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheme.Answer(prep, queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpCVPNoPreprocess measures the Theorem 9 slow path: evaluating a
// 64k-gate instance from scratch per query.
func BenchmarkOpCVPNoPreprocess(b *testing.B) {
	inst := cvpInstance(1 << 16)
	scheme := CVPNoPreprocessScheme()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheme.Answer(nil, inst); err != nil {
			b.Fatal(err)
		}
	}
}

// --- sequential-vs-parallel benchmarks (the X experiments, per-op) -----------

// batchWorkload builds a preprocessed BFS-per-query reachability store
// and a query batch: each answer costs O(|V|+|E|), the shape where pooled
// answering pays off.
func batchWorkload(b *testing.B) (*Scheme, []byte, [][]byte) {
	b.Helper()
	g := RandomDirected(1<<10, 4<<10, 17)
	scheme := ReachabilityBFSScheme()
	prep, err := scheme.Preprocess(g.Encode())
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]byte, 64)
	rng := rand.New(rand.NewSource(18))
	for i := range queries {
		queries[i] = NodePairQuery(rng.Intn(1<<10), rng.Intn(1<<10))
	}
	return scheme, prep, queries
}

// BenchmarkOpAnswerBatchLoop is the sequential baseline: a batch of 64
// reachability queries answered one at a time.
func BenchmarkOpAnswerBatchLoop(b *testing.B) {
	scheme, prep, queries := batchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheme.AnswerBatch(prep, queries, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpAnswerBatchParallel answers the same batch through the
// GOMAXPROCS-sized worker pool; on a multi-core host it beats the loop
// roughly linearly in core count.
func BenchmarkOpAnswerBatchParallel(b *testing.B) {
	scheme, prep, queries := batchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheme.AnswerBatch(prep, queries, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpPRAMClosureSequential measures the NC² closure schedule on
// the sequential oracle executor (48 vertices, n³-wide rounds).
func BenchmarkOpPRAMClosureSequential(b *testing.B) {
	adj := pathMatrix(48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PRAMTransitiveClosure(NewPRAM(0), adj)
	}
}

// BenchmarkOpPRAMClosureParallel runs the identical schedule on the
// goroutine-parallel executor.
func BenchmarkOpPRAMClosureParallel(b *testing.B) {
	adj := pathMatrix(48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PRAMTransitiveClosure(NewPRAM(0, WithPRAMWorkers(0)), adj)
	}
}

func pathMatrix(n int) *PRAMBoolMatrix {
	adj := NewPRAMBoolMatrix(n)
	for i := 0; i+1 < n; i++ {
		adj.Set(i, i+1, true)
	}
	return adj
}

// BenchmarkOpTheorem5Chain measures one full chain execution (compile,
// reduce, preprocess, answer) for the parity machine on 8-bit inputs.
func BenchmarkOpTheorem5Chain(b *testing.B) {
	cm := ParityMachine()
	scheme := TMSchemeViaBDS(cm)
	x := EncodeBits([]bool{true, false, true, true, false, false, true, true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prep, err := scheme.Preprocess(x)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := scheme.Answer(prep, x); err != nil {
			b.Fatal(err)
		}
	}
}
