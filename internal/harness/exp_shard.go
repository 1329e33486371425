package harness

// X4 measures the sharded serving path end-to-end: one reachability
// dataset registered over HTTP with ?shards ∈ {1, 2, 4} (range
// partitioning, so vertex blocks stay contiguous), reporting per-layout
// preprocess wall time, total snapshot bytes (per-shard closures plus the
// portal overlay summary), and served queries per second through
// /v1/query/batch. The 1-shard row is the unsharded baseline; every
// sharded verdict is differentially checked against it in-line.

import (
	"fmt"
	"math/rand"
	"net/http"

	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/server"
	"pitract/internal/store"
)

// X4Sharding measures 1/2/4-shard preprocessing and serving against the
// unsharded baseline on one dataset.
func X4Sharding(s Scale) (*Table, error) {
	t := &Table{
		ID:    "X4",
		Title: "sharded stores: preprocess time, snapshot bytes, served QPS (reachability, range partitioner)",
		Columns: []string{"vertices", "shards", "preprocess ms", "snapshot B",
			"vs 1-shard B", "queries", "batch ms", "qps", "vs 1-shard qps"},
	}
	workers := Parallelism()
	queryCount := 256
	if s == Full {
		queryCount = 1024
	}

	for _, n := range s.sizes([]int{192}, []int{512, 1024}) {
		// Communities aligned with range partitioning keep the cross-shard
		// cut small but non-empty — the realistic sharding regime.
		g := graph.CommunityGraph(8, n/8, n/4, int64(n))
		data := g.Encode()
		rng := rand.New(rand.NewSource(int64(n) + 31))
		queries := make([][]byte, queryCount)
		for i := range queries {
			queries[i] = schemes.NodePairQuery(rng.Intn(g.N()), rng.Intn(g.N()))
		}

		var baseBytes, baseQPS float64
		var baseline []bool
		for _, shards := range []int{1, 2, 4} {
			base, client, stop, err := liveServer(server.New(store.NewRegistry(""), nil))
			if err != nil {
				return nil, fmt.Errorf("X4: %w", err)
			}

			var info server.DatasetInfo
			prepNs := timeOp(1, func() {
				err = requestOK(client, http.MethodPost, fmt.Sprintf("%s/v1/datasets?shards=%d&partitioner=range", base, shards),
					server.RegisterRequest{ID: "g", Scheme: "reachability/closure-matrix", Data: data}, &info)
			})
			if err != nil {
				return nil, fmt.Errorf("X4: register %d shards: %w", shards, err)
			}
			if info.Shards != shards {
				return nil, fmt.Errorf("X4: registered %d shards, want %d", info.Shards, shards)
			}

			var answers []bool
			batchNs := timeOp(1, func() {
				var resp server.BatchResponse
				if err = requestOK(client, http.MethodPost, base+"/v1/query/batch", server.BatchRequest{
					Dataset: "g", Queries: queries, Parallelism: workers,
				}, &resp); err != nil {
					return
				}
				answers = resp.Answers
			})
			if err != nil {
				return nil, fmt.Errorf("X4: batch %d shards: %w", shards, err)
			}
			qps := 1e9 * float64(queryCount) / batchNs
			if shards == 1 {
				baseBytes, baseQPS, baseline = float64(info.PrepBytes), qps, answers
			} else {
				for i := range answers {
					if answers[i] != baseline[i] {
						return nil, fmt.Errorf("X4: %d shards: query %d diverged from unsharded baseline", shards, i)
					}
				}
			}
			t.AddRow(g.N(), shards, prepNs/1e6, info.PrepBytes,
				float64(info.PrepBytes)/baseBytes, queryCount, batchNs/1e6, qps, qps/baseQPS)

			if err := stop(); err != nil {
				return nil, fmt.Errorf("X4: %w", err)
			}
		}
	}
	t.Note("every sharded verdict differentially verified against the 1-shard baseline in-line")
	t.Note("snapshot B = per-shard closure matrices + portal overlay summary; closures shrink as (n/k)²")
	t.Note("preprocess runs one goroutine per shard; single-core hosts show ≈1.0 speedup (see CHANGES.md PR 1)")
	return t, nil
}
