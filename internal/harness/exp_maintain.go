package harness

// X5 measures incremental serving end-to-end: one dataset registered over
// HTTP, then maintained in place under PATCH /v1/datasets/{id} deltas —
// the paper's §1 justification (3), that preprocessing pays off because
// Π(D ⊕ ∆D) can be maintained instead of recomputed. For each size the
// table compares the total wall time of PATCHing the deltas (incremental
// maintenance plus snapshot rewriting) against re-registering the updated
// dataset from scratch (a fresh PTIME Preprocess), and every verdict
// served from the maintained store is differentially checked in-line
// against a from-scratch preprocessing of the updated data.

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/server"
	"pitract/internal/store"
)

// x5Workload is one maintained-scheme scenario.
type x5Workload struct {
	scheme  string
	inc     *core.IncrementalScheme
	data    []byte   // D as registered
	deltas  [][]byte // applied one PATCH per delta
	queries [][]byte // probes answered after maintenance
}

// x5PointSelection inserts fresh keys into a sorted-key relation.
func x5PointSelection(n int) x5Workload {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(2 * i) // even keys, so odd inserts are genuinely new
	}
	deltas := make([][]byte, 16)
	var inserted []int64
	for i := range deltas {
		batch := []int64{int64(2*n + 2*i + 1), int64(4*n + 2*i + 1)}
		inserted = append(inserted, batch...)
		deltas[i] = schemes.KeysDelta(batch)
	}
	var queries [][]byte
	for _, k := range inserted {
		queries = append(queries, schemes.PointQuery(k), schemes.PointQuery(k+1))
	}
	queries = append(queries, schemes.PointQuery(0), schemes.PointQuery(int64(2*n-2)))
	return x5Workload{
		scheme:  "point-selection/sorted-keys",
		inc:     schemes.IncrementalPointSelection(),
		data:    schemes.RelationFromKeys(keys),
		deltas:  deltas,
		queries: queries,
	}
}

// x5Reachability inserts random edges into a community graph.
func x5Reachability(n int) x5Workload {
	g := graph.CommunityGraph(8, n/8, n/4, int64(n)+73)
	rng := rand.New(rand.NewSource(int64(n) + 37))
	deltas := make([][]byte, 8)
	for i := range deltas {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		for u == v {
			v = rng.Intn(g.N())
		}
		deltas[i] = schemes.EdgeDelta(u, v)
	}
	queries := make([][]byte, 128)
	for i := range queries {
		queries[i] = schemes.NodePairQuery(rng.Intn(g.N()), rng.Intn(g.N()))
	}
	return x5Workload{
		scheme:  "reachability/closure-matrix",
		inc:     schemes.IncrementalReachability(),
		data:    g.Encode(),
		deltas:  deltas,
		queries: queries,
	}
}

// X5IncrementalServing measures PATCH-maintained Π(D ⊕ ∆D) against
// re-registering the updated dataset, with in-line differential checks.
func X5IncrementalServing(s Scale) (*Table, error) {
	t := &Table{
		ID:    "X5",
		Title: "incremental serving: PATCH-maintained Π(D ⊕ ∆D) vs re-registering from scratch",
		Columns: []string{"scheme", "size", "deltas", "maintain ms", "re-register ms",
			"speedup", "version", "checked"},
	}
	var loads []x5Workload
	for _, n := range s.sizes([]int{512}, []int{4096, 16384}) {
		loads = append(loads, x5PointSelection(n))
	}
	for _, n := range s.sizes([]int{128}, []int{384, 512}) {
		loads = append(loads, x5Reachability(n))
	}

	for _, wl := range loads {
		// The updated raw dataset D ⊕ ∆D₁ ⊕ … ⊕ ∆Dₖ, for the re-register
		// baseline and the differential oracle.
		updated := wl.data
		var err error
		for _, d := range wl.deltas {
			if updated, err = wl.inc.ApplyUpdate(updated, d); err != nil {
				return nil, fmt.Errorf("X5: ⊕: %w", err)
			}
		}

		dir, err := os.MkdirTemp("", "pitract-x5-")
		if err != nil {
			return nil, err
		}
		base, client, stop, err := liveServer(server.New(store.NewRegistry(dir), nil))
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("X5: %w", err)
		}

		row, err := func() ([]interface{}, error) {
			if err := requestOK(client, http.MethodPost, base+"/v1/datasets",
				server.RegisterRequest{ID: "d", Scheme: wl.scheme, Data: wl.data}, nil); err != nil {
				return nil, fmt.Errorf("X5: register: %w", err)
			}
			// Maintain: one PATCH carrying the whole delta batch — one
			// atomic application, one snapshot rewrite, matching the one
			// Preprocess and one snapshot write of the re-register baseline.
			var info server.DatasetInfo
			maintainNs := timeOp(1, func() {
				err = requestOK(client, http.MethodPatch, base+"/v1/datasets/d", server.PatchRequest{Deltas: wl.deltas}, &info)
			})
			if err != nil {
				return nil, fmt.Errorf("X5: patch: %w", err)
			}
			if info.Version != uint64(len(wl.deltas)) {
				return nil, fmt.Errorf("X5: version %d after %d deltas", info.Version, len(wl.deltas))
			}
			// Re-register baseline: the updated dataset preprocessed from
			// scratch (and snapshotted), under a fresh id.
			reregisterNs := timeOp(1, func() {
				err = requestOK(client, http.MethodPost, base+"/v1/datasets",
					server.RegisterRequest{ID: "d-rebuilt", Scheme: wl.scheme, Data: updated}, nil)
			})
			if err != nil {
				return nil, fmt.Errorf("X5: re-register: %w", err)
			}
			// Differential check: the maintained store must answer every
			// probe exactly like the from-scratch store of the updated data.
			var got, want server.BatchResponse
			if err := requestOK(client, http.MethodPost, base+"/v1/query/batch",
				server.BatchRequest{Dataset: "d", Queries: wl.queries}, &got); err != nil {
				return nil, fmt.Errorf("X5: query maintained: %w", err)
			}
			if err := requestOK(client, http.MethodPost, base+"/v1/query/batch",
				server.BatchRequest{Dataset: "d-rebuilt", Queries: wl.queries}, &want); err != nil {
				return nil, fmt.Errorf("X5: query rebuilt: %w", err)
			}
			for i := range wl.queries {
				if got.Answers[i] != want.Answers[i] {
					return nil, fmt.Errorf("X5: %s query %d: maintained %v, rebuilt %v",
						wl.scheme, i, got.Answers[i], want.Answers[i])
				}
			}
			size := len(wl.data)
			return []interface{}{wl.scheme, size, len(wl.deltas), maintainNs / 1e6,
				reregisterNs / 1e6, reregisterNs / maintainNs, info.Version, len(wl.queries)}, nil
		}()

		stopErr := stop()
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		if stopErr != nil {
			return nil, fmt.Errorf("X5: %w", stopErr)
		}
		t.AddRow(row...)
	}
	t.Note("every maintained verdict differentially checked against a from-scratch preprocess of D ⊕ ∆D in-line")
	t.Note("maintain ms = one PATCH of the whole delta batch (apply + snapshot rewrite); re-register ms = fresh Preprocess + snapshot write")
	t.Note("size = encoded |D| bytes; version = deltas applied (monotonic, persisted in the snapshot)")
	return t, nil
}
