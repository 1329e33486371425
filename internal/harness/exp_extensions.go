package harness

import (
	"math/rand"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/relation"
	"pitract/internal/schemes"
	"pitract/internal/topk"
	"pitract/internal/views"
)

// C10TopK measures §8(5): top-k answering with early termination — the
// Threshold Algorithm against the full-scan baseline, with access counts
// showing how little of the preprocessed lists TA reads.
func C10TopK(s Scale) (*Table, error) {
	t := &Table{
		ID:    "C10",
		Title: "top-k with early termination (Fagin/TA) vs full scan",
		Columns: []string{"objects", "k", "TA ns/query", "scan ns/query",
			"seq accesses", "frac of lists"},
	}
	var accessSeries []core.Measurement
	for _, n := range s.sizes([]int{1 << 12, 1 << 15, 1 << 17},
		[]int{1 << 13, 1 << 16, 1 << 19, 1 << 21}) {
		d := topk.GenZipf(n, 3, int64(n))
		idx, err := topk.NewIndex(d)
		if err != nil {
			return nil, err
		}
		k := 10
		// Correctness check against the scan.
		ta, st, err := idx.TopK(k)
		if err != nil {
			return nil, err
		}
		sc, err := topk.Scan(d, k)
		if err != nil {
			return nil, err
		}
		for i := range ta {
			if ta[i].Score != sc[i].Score {
				return nil, errMismatch("C10", i)
			}
		}
		taNs := timeOp(16, func() {
			_, _, _ = idx.TopK(k)
		})
		scanNs := timeOp(4, func() {
			_, _ = topk.Scan(d, k)
		})
		frac := float64(st.Sequential) / float64(3*n)
		t.AddRow(n, k, taNs, scanNs, st.Sequential, frac)
		accessSeries = append(accessSeries, core.Measurement{N: float64(n), Cost: float64(st.Sequential)})
	}
	t.Note("%s", fitNote("TA sequential accesses", accessSeries))
	t.Note("early termination reads a vanishing fraction of the preprocessed lists on skewed scores")
	return t, nil
}

// C11IncrementalPreprocessing measures the §1 incremental-preprocessing
// claim: maintaining Π(D ⊕ ∆D) from Π(D) beats re-preprocessing, and the
// maintained structure answers identically.
func C11IncrementalPreprocessing(s Scale) (*Table, error) {
	t := &Table{
		ID:    "C11",
		Title: "incremental preprocessing: maintain Π(D ⊕ ∆D) vs re-preprocess",
		Columns: []string{"structure", "|D|", "|∆D|", "maintain ns", "re-preprocess ns",
			"speedup"},
	}
	// Sorted-key file under insertions.
	sel := schemes.PointSelectionScheme()
	for _, n := range s.sizes([]int{1 << 12, 1 << 15}, []int{1 << 14, 1 << 17, 1 << 19}) {
		rel := relation.Generate(relation.GenConfig{Rows: n, Seed: int64(n), KeyMax: int64(2 * n)})
		d := rel.Encode()
		pd, err := sel.Preprocess(d)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(n)))
		batch := make([]int64, 16)
		for i := range batch {
			batch[i] = rng.Int63n(int64(4 * n))
		}
		delta := schemes.KeysDelta(batch)
		// Verify equivalence before timing.
		if err := sel.VerifyIncremental(d, [][]byte{delta}, [][]byte{
			schemes.PointQuery(batch[0]), schemes.PointQuery(-1),
		}); err != nil {
			return nil, err
		}
		maintainNs := timeOp(8, func() {
			_, _ = sel.ApplyDelta(pd, delta)
		})
		updated, err := sel.ApplyUpdate(d, delta)
		if err != nil {
			return nil, err
		}
		rebuildNs := timeOp(4, func() {
			_, _ = sel.Preprocess(updated)
		})
		t.AddRow("sorted-keys", n, len(batch), maintainNs, rebuildNs, rebuildNs/maintainNs)
	}
	// Closure matrix under edge insertions.
	reach := schemes.ReachabilityScheme()
	for _, n := range s.sizes([]int{1 << 7, 1 << 9}, []int{1 << 8, 1 << 10, 1 << 11}) {
		g := graph.RandomDirected(n, 2*n, int64(n))
		d := g.Encode()
		pd, err := reach.Preprocess(d)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(n)))
		u, v := rng.Intn(n), rng.Intn(n)
		for u == v {
			v = rng.Intn(n)
		}
		delta := schemes.EdgeDelta(u, v)
		if err := reach.VerifyIncremental(d, [][]byte{delta}, [][]byte{
			schemes.NodePairQuery(0, n-1), schemes.NodePairQuery(u, v),
		}); err != nil {
			return nil, err
		}
		maintainNs := timeOp(8, func() {
			_, _ = reach.ApplyDelta(pd, delta)
		})
		updated, err := reach.ApplyUpdate(d, delta)
		if err != nil {
			return nil, err
		}
		rebuildNs := timeOp(2, func() {
			_, _ = reach.Preprocess(updated)
		})
		t.AddRow("closure-matrix", n, 1, maintainNs, rebuildNs, rebuildNs/maintainNs)
	}
	t.Note("maintained structures verified answer-equivalent to fresh preprocessing at every step")
	return t, nil
}

// C12FunctionAndRewriting measures the §8(3) function schemes (RMQ, LCA)
// and the λ-rewriting scheme (views), the Definition 1 extensions.
func C12FunctionAndRewriting(s Scale) (*Table, error) {
	t := &Table{
		ID:      "C12",
		Title:   "extensions: function schemes (§8(3)) and query rewriting λ",
		Columns: []string{"scheme", "n", "prep ns", "apply ns/query", "note"},
	}
	// RMQ function scheme.
	rmqScheme := schemes.RMQFuncScheme()
	for _, n := range s.sizes([]int{1 << 12, 1 << 15}, []int{1 << 14, 1 << 17}) {
		rng := rand.New(rand.NewSource(int64(n)))
		a := make([]int64, n)
		for i := range a {
			a[i] = rng.Int63n(1 << 20)
		}
		d := schemes.EncodeList(a)
		var pd []byte
		prepNs := timeOp(1, func() {
			var err error
			pd, err = rmqScheme.Preprocess(d)
			if err != nil {
				panic(err)
			}
		})
		queries := make([][]byte, 128)
		for i := range queries {
			lo := rng.Intn(n)
			queries[i] = schemes.RangeQueryIJ(lo, lo+rng.Intn(n-lo))
		}
		qi := 0
		applyNs := timeOp(4096, func() {
			_, _ = rmqScheme.Apply(pd, queries[qi%len(queries)])
			qi++
		})
		t.AddRow("rmq/sparse-table", n, prepNs, applyNs, "O(1) argmin")
	}
	// LCA function scheme (cubic preprocessing: small n).
	lcaScheme := schemes.LCAFuncScheme()
	for _, n := range s.sizes([]int{64, 128}, []int{128, 256, 384}) {
		g := graph.RandomDAG(n, 3*n, int64(n))
		d := g.Encode()
		var pd []byte
		prepNs := timeOp(1, func() {
			var err error
			pd, err = lcaScheme.Preprocess(d)
			if err != nil {
				panic(err)
			}
		})
		rng := rand.New(rand.NewSource(int64(n)))
		queries := make([][]byte, 128)
		for i := range queries {
			queries[i] = schemes.NodePairQuery(rng.Intn(n), rng.Intn(n))
		}
		qi := 0
		applyNs := timeOp(4096, func() {
			_, _ = lcaScheme.Apply(pd, queries[qi%len(queries)])
			qi++
		})
		t.AddRow("lca/all-pairs-table", n, prepNs, applyNs, "O(1) representative")
	}
	// λ-rewriting scheme over views.
	for _, n := range s.sizes([]int{1 << 13}, []int{1 << 16}) {
		rel := relation.Generate(relation.GenConfig{Rows: n, Seed: int64(n), KeyMax: int64(n)})
		d := rel.Encode()
		defs := views.EvenPartition("key", 0, int64(n)-1, 8)
		vr := schemes.ViewRewritingScheme(defs)
		var pd []byte
		prepNs := timeOp(1, func() {
			var err error
			pd, err = vr.Preprocess(d)
			if err != nil {
				panic(err)
			}
		})
		rng := rand.New(rand.NewSource(int64(n)))
		queries := make([][]byte, 128)
		for i := range queries {
			queries[i] = schemes.PointQuery(rng.Int63n(int64(n)))
		}
		a := answerer(vr.Plain(), pd)
		qi := 0
		applyNs := timeOp(4096, func() {
			if _, err := a.Answer(queries[qi%len(queries)]); err != nil {
				panic(err)
			}
			qi++
		})
		t.AddRow("views/λ-rewriting", n, prepNs, applyNs, "⟨Π(D), λ(Q)⟩ ∈ S′")
	}
	t.Note("the revised Definition 1 (with λ) and the §8(3) function schemes, both exercised")
	return t, nil
}
