package harness

// X3 measures the serving subsystem end-to-end: the same preprocessed
// store answered three ways — direct Answer calls in-process, single
// queries over the HTTP JSON API, and batches over the HTTP API riding the
// AnswerBatch worker pool. The spread between the rows is the price of the
// network/JSON envelope; the batch row shows how amortizing it over a
// batch recovers most of the in-process throughput.

import (
	"fmt"
	"math/rand"
	"net/http"

	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/server"
	"pitract/internal/store"
)

// X3Serving serves reachability queries over HTTP and compares throughput
// against direct in-process Answer calls on the identical store.
func X3Serving(s Scale) (*Table, error) {
	t := &Table{
		ID:    "X3",
		Title: "served queries: HTTP API vs direct Answer calls (reachability)",
		Columns: []string{"vertices", "queries", "path", "total ms",
			"µs/query", "qps", "vs direct"},
	}
	workers := Parallelism()
	queryCount := 256
	if s == Full {
		queryCount = 1024
	}

	for _, n := range s.sizes([]int{128, 256}, []int{256, 512, 1024}) {
		g := graph.RandomDirected(n, 4*n, int64(n))
		reg := store.NewRegistry("")
		base, client, stop, err := liveServer(server.New(reg, nil))
		if err != nil {
			return nil, fmt.Errorf("X3: %w", err)
		}

		id := fmt.Sprintf("graph-%d", n)
		if err := requestOK(client, http.MethodPost, base+"/v1/datasets", server.RegisterRequest{
			ID: id, Scheme: "reachability/closure-matrix", Data: g.Encode(),
		}, nil); err != nil {
			return nil, fmt.Errorf("X3: register: %w", err)
		}
		st, ok := reg.Get(id)
		if !ok {
			return nil, fmt.Errorf("X3: dataset %s missing after registration", id)
		}

		rng := rand.New(rand.NewSource(int64(n) + 23))
		queries := make([][]byte, queryCount)
		for i := range queries {
			queries[i] = schemes.NodePairQuery(rng.Intn(n), rng.Intn(n))
		}

		// Path 1: direct in-process Answer calls (the X2 baseline).
		direct := make([]bool, queryCount)
		directNs := timeOp(1, func() {
			for i, q := range queries {
				direct[i], err = st.Answer(q)
				if err != nil {
					return
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("X3: direct answer: %w", err)
		}

		// Path 2: one HTTP request per query.
		single := make([]bool, queryCount)
		singleNs := timeOp(1, func() {
			for i, q := range queries {
				var resp server.QueryResponse
				if err = requestOK(client, http.MethodPost, base+"/v1/query",
					server.QueryRequest{Dataset: id, Query: q}, &resp); err != nil {
					return
				}
				single[i] = resp.Answer
			}
		})
		if err != nil {
			return nil, fmt.Errorf("X3: http single: %w", err)
		}

		// Path 3: one batch request riding the AnswerBatch pool.
		var batch []bool
		batchNs := timeOp(1, func() {
			var resp server.BatchResponse
			if err = requestOK(client, http.MethodPost, base+"/v1/query/batch", server.BatchRequest{
				Dataset: id, Queries: queries, Parallelism: workers,
			}, &resp); err != nil {
				return
			}
			batch = resp.Answers
		})
		if err != nil {
			return nil, fmt.Errorf("X3: http batch: %w", err)
		}

		for i := range queries {
			if single[i] != direct[i] || batch[i] != direct[i] {
				return nil, fmt.Errorf("X3: query %d diverged (direct %v, single %v, batch %v)",
					i, direct[i], single[i], batch[i])
			}
		}

		for _, row := range []struct {
			path string
			ns   float64
		}{
			{"direct Answer", directNs},
			{"HTTP single", singleNs},
			{"HTTP batch", batchNs},
		} {
			perQuery := row.ns / float64(queryCount)
			t.AddRow(n, queryCount, row.path, row.ns/1e6, perQuery/1e3,
				1e9*float64(queryCount)/row.ns, row.ns/directNs)
		}

		if err := stop(); err != nil {
			return nil, fmt.Errorf("X3: %w", err)
		}
	}
	t.Note("all three paths verified to return identical verdicts from one preprocessed store")
	t.Note("HTTP single pays the per-request envelope; HTTP batch amortizes it across the batch")
	return t, nil
}
