package pitract

// One benchmark per experiment id (regenerating the corresponding paper
// artifact end to end at Quick scale), plus fine-grained per-operation
// benchmarks for the answering paths whose polylog/constant growth the
// paper claims. Run with:
//
//	go test -bench=. -benchmem
//
// The per-op benchmarks report the interesting number directly (ns per
// answered query after preprocessing and Prepare); the experiment benchmarks bound the
// cost of regenerating each table.

import (
	"io"
	"math/rand"
	"testing"

	"pitract/internal/harness"
)

// BenchmarkExperiment regenerates every experiment of harness.All() at
// Quick scale, one sub-benchmark per id (-bench 'BenchmarkExperiment/C3$').
func BenchmarkExperiment(b *testing.B) {
	for _, e := range harness.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tbl, err := e.Run(harness.Quick)
				if err != nil {
					b.Fatal(err)
				}
				tbl.Render(io.Discard)
			}
		})
	}
}

// BenchmarkOpShardedReachAnswer measures one sharded reachability answer
// (4 range-partitioned shards, portal reach rows merge) against the same
// query mix BenchmarkOpReachabilityAnswer-style benchmarks use, so the
// sharding overhead per query is visible next to the O(1) unsharded read.
func BenchmarkOpShardedReachAnswer(b *testing.B) {
	g := CommunityGraph(8, 128, 256, 9)
	ss, err := BuildShardedStore("bench", ReachabilityScheme(), 4, g.Encode())
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
// a registered store — the serving sibling of BenchmarkOpReachabilityAnswer's
// bare prepared probe, so what the store adds per query is visible in the
// benchmark output.
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
	a, err := scheme.Prepare(prep)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Answer(queries[i%len(queries)]); err != nil {
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
	a, err := scheme.Prepare(prep)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Answer(queries[i%len(queries)]); err != nil {
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
	a, err := scheme.Prepare(prep)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Answer(queries[i%len(queries)]); err != nil {
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
	a, err := scheme.Prepare(prep)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Answer(queries[i%len(queries)]); err != nil {
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

// --- sequential-vs-parallel benchmarks (X1 and X2, per-op) -------------------

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
