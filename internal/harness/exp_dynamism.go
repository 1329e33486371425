package harness

// X9 measures full dynamism: datasets maintained under mixed
// insert/delete/upsert deltas — the paper's Π(D ⊕ ∆D) with ∆D now allowed
// to retract facts — and the write-ahead delta log that makes every
// acknowledged batch crash-durable. For each size the table compares the
// wall time of delete-heavy maintenance against re-registering the updated
// dataset from scratch, then simulates a crash (a registry discarded with
// uncheckpointed log records) and times the replay that brings a fresh
// registry back to the exact acknowledged version. Every maintained
// verdict is differentially checked in-line against a from-scratch
// preprocessing of the updated data, before and after the replay.

import (
	"fmt"
	"math/rand"
	"os"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// x9Workload is one mixed-dynamism scenario.
type x9Workload struct {
	scheme  string
	inc     *core.IncrementalScheme
	data    []byte
	batches [][][]byte // each batch = one ApplyDelta call, mixed kinds
	queries [][]byte
}

// x9PointSelection churns a sorted-key relation: every batch inserts two
// fresh odd keys and tombstones two original even keys.
func x9PointSelection(n int) x9Workload {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(2 * i)
	}
	batches := make([][][]byte, 12)
	var touched []int64
	for i := range batches {
		ins := []int64{int64(2*n + 2*i + 1), int64(4*n + 2*i + 1)}
		del := []int64{int64(4 * i), int64(4*i + 2)}
		touched = append(touched, ins...)
		touched = append(touched, del...)
		batches[i] = [][]byte{schemes.KeysDelta(ins), schemes.KeysDeleteDelta(del)}
	}
	var queries [][]byte
	for _, k := range touched {
		queries = append(queries, schemes.PointQuery(k))
	}
	queries = append(queries, schemes.PointQuery(int64(2*n-2)), schemes.PointQuery(1))
	return x9Workload{
		scheme:  "point-selection/sorted-keys",
		inc:     schemes.IncrementalPointSelection(),
		data:    schemes.RelationFromKeys(keys),
		batches: batches,
		queries: queries,
	}
}

// x9Reachability churns a community graph: each batch inserts a fresh edge
// and retracts one inserted two batches earlier, so the decremental path
// (Vigny reroute-or-recompute) runs on every batch after the second.
func x9Reachability(n int) x9Workload {
	g := graph.CommunityGraph(8, n/8, n/4, int64(n)+81)
	rng := rand.New(rand.NewSource(int64(n) + 41))
	used := map[[2]int]bool{}
	freshPair := func() (int, int) {
		for {
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u != v && !g.HasEdge(u, v) && !used[[2]int{u, v}] {
				used[[2]int{u, v}] = true
				return u, v
			}
		}
	}
	const k = 8
	pairs := make([][2]int, k)
	for i := range pairs {
		u, v := freshPair()
		pairs[i] = [2]int{u, v}
	}
	batches := make([][][]byte, k)
	for i := 0; i < k; i++ {
		batch := [][]byte{schemes.EdgeDelta(pairs[i][0], pairs[i][1])}
		if i >= 2 {
			batch = append(batch, schemes.EdgeDeleteDelta(pairs[i-2][0], pairs[i-2][1]))
		}
		batches[i] = batch
	}
	queries := make([][]byte, 128)
	for i := range queries {
		queries[i] = schemes.NodePairQuery(rng.Intn(g.N()), rng.Intn(g.N()))
	}
	return x9Workload{
		scheme:  "reachability/closure-matrix",
		inc:     schemes.IncrementalReachability(),
		data:    g.Encode(),
		batches: batches,
		queries: queries,
	}
}

// x9Check differentially verifies the maintained store against a
// from-scratch preprocessing of the updated raw data.
func x9Check(wl x9Workload, st *store.Store, updated []byte, where string) error {
	fresh, err := wl.inc.Scheme.Preprocess(updated)
	if err != nil {
		return fmt.Errorf("X9: %s: fresh preprocess: %w", where, err)
	}
	for i, q := range wl.queries {
		got, err := st.Answer(q)
		if err != nil {
			return fmt.Errorf("X9: %s query %d: %w", where, i, err)
		}
		want, err := wl.inc.Scheme.Answer(fresh, q)
		if err != nil {
			return fmt.Errorf("X9: %s query %d oracle: %w", where, i, err)
		}
		if got != want {
			return fmt.Errorf("X9: %s query %d: maintained %v, rebuilt %v", where, i, got, want)
		}
	}
	return nil
}

// x9Run measures one workload: maintain ms, rebuild ms, and replay ms,
// returning the row plus the headline metrics.
func x9Run(wl x9Workload) (row []interface{}, speedup, replayMs float64, err error) {
	updated := wl.data
	var totalDeltas int
	for _, b := range wl.batches {
		for _, d := range b {
			totalDeltas++
			if updated, err = wl.inc.ApplyUpdate(updated, d); err != nil {
				return nil, 0, 0, fmt.Errorf("X9: ⊕: %w", err)
			}
		}
	}

	dir, err := os.MkdirTemp("", "pitract-x9-")
	if err != nil {
		return nil, 0, 0, err
	}
	defer os.RemoveAll(dir)

	// Maintain: the log absorbs every batch; no checkpoint between them, so
	// the crash below has the whole history to replay.
	reg := store.NewRegistry(dir)
	reg.SetCheckpointEvery(totalDeltas + 1)
	if _, err := reg.Register("d", wl.inc.Scheme, wl.data); err != nil {
		return nil, 0, 0, fmt.Errorf("X9: register: %w", err)
	}
	maintainNs := timeOp(1, func() {
		for _, b := range wl.batches {
			if _, e := reg.ApplyDelta("d", b); e != nil {
				err = e
				return
			}
		}
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("X9: maintain: %w", err)
	}
	st, _ := reg.Get("d")
	if st.Version() != uint64(totalDeltas) {
		return nil, 0, 0, fmt.Errorf("X9: version %d after %d deltas", st.Version(), totalDeltas)
	}
	if err := x9Check(wl, st, updated, "maintained"); err != nil {
		return nil, 0, 0, err
	}

	// Rebuild baseline: the updated dataset preprocessed from scratch.
	var rebuildErr error
	rebuildNs := timeOp(1, func() {
		_, rebuildErr = wl.inc.Scheme.Preprocess(updated)
	})
	if rebuildErr != nil {
		return nil, 0, 0, fmt.Errorf("X9: rebuild: %w", rebuildErr)
	}

	// Crash: drop the registry (its snapshot is still the registration
	// image, every batch lives only in the log) and time the replay a
	// fresh registry runs at Register.
	reg2 := store.NewRegistry(dir)
	var st2 *store.Store
	replayNs := timeOp(1, func() {
		st2, err = reg2.Register("d", wl.inc.Scheme, wl.data)
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("X9: recover: %w", err)
	}
	if !st2.WasLoaded() {
		return nil, 0, 0, fmt.Errorf("X9: recovery re-preprocessed instead of replaying")
	}
	if got := reg2.ReplayCount(); got != int64(len(wl.batches)) {
		return nil, 0, 0, fmt.Errorf("X9: replayed %d records, want %d", got, len(wl.batches))
	}
	if st2.Version() != uint64(totalDeltas) {
		return nil, 0, 0, fmt.Errorf("X9: recovered version %d, want %d", st2.Version(), totalDeltas)
	}
	if err := x9Check(wl, st2, updated, "replayed"); err != nil {
		return nil, 0, 0, err
	}

	speedup = rebuildNs / maintainNs
	replayMs = replayNs / 1e6
	row = []interface{}{wl.scheme, len(wl.data), totalDeltas, len(wl.batches),
		maintainNs / 1e6, rebuildNs / 1e6, speedup, replayMs, len(wl.queries)}
	return row, speedup, replayMs, nil
}

// X9FullDynamism measures mixed insert/delete maintenance and delta-log
// crash replay, with in-line differential checks.
func X9FullDynamism(s Scale) (*Table, error) {
	t := &Table{
		ID:    "X9",
		Title: "full dynamism: delete-maintained Π(D ⊕ ∆D) vs rebuild, and delta-log crash replay",
		Columns: []string{"scheme", "size", "deltas", "batches", "maintain ms",
			"rebuild ms", "speedup", "replay ms", "checked"},
	}
	var loads []x9Workload
	for _, n := range s.sizes([]int{512}, []int{4096, 16384}) {
		loads = append(loads, x9PointSelection(n))
	}
	for _, n := range s.sizes([]int{128}, []int{384, 512}) {
		loads = append(loads, x9Reachability(n))
	}
	for _, wl := range loads {
		row, _, _, err := x9Run(wl)
		if err != nil {
			return nil, err
		}
		t.AddRow(row...)
	}
	t.Note("every maintained verdict differentially checked against a from-scratch preprocess of D ⊕ ∆D, before and after replay")
	t.Note("deltas mix inserts with deletions (tombstones / edge retractions); maintain ms covers apply + log append, no checkpoints")
	t.Note("replay ms = registry open over ⟨registration snapshot, full delta log⟩ back to the exact acknowledged version")
	return t, nil
}

// X9DynamismMetrics regenerates X9's point-selection workload at the given
// scale and returns the headline numbers for the benchmark output: the
// delete-maintain speedup over rebuilding and the crash-replay wall time.
func X9DynamismMetrics(s Scale) (speedup, replayMs float64, err error) {
	n := s.sizes([]int{512}, []int{16384})[0]
	_, speedup, replayMs, err = x9Run(x9PointSelection(n))
	return speedup, replayMs, err
}
