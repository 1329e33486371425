package harness

import (
	"math/rand"

	"pitract/internal/core"
	"pitract/internal/listsearch"
	"pitract/internal/relation"
	"pitract/internal/scanmodel"
	"pitract/internal/schemes"
)

// E1PointSelection reproduces Example 1: the paper's 1PB arithmetic
// (regenerated from the model) and a real measurement of scan-per-query vs
// preprocessing + logarithmic answering across relation sizes.
func E1PointSelection(s Scale) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "point selection: linear scan vs B⁺-tree-style index",
		Columns: []string{"rows", "scan ns/query", "indexed ns/query",
			"speedup", "preprocess ns"},
	}
	scanScheme := schemes.PointSelectionScanScheme()
	idxScheme := schemes.PointSelectionScheme()
	lang := schemes.SelectionLanguage()
	var scanSeries, idxSeries []core.Measurement
	for _, n := range s.sizes([]int{1 << 8, 1 << 10, 1 << 12, 1 << 14},
		[]int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18}) {
		rel := relation.Generate(relation.GenConfig{Rows: n, Seed: int64(n), KeyMax: int64(2 * n)})
		d := rel.Encode()
		rng := rand.New(rand.NewSource(int64(n) + 7))
		queries := make([][]byte, 64)
		for i := range queries {
			queries[i] = schemes.PointQuery(rng.Int63n(int64(4 * n)))
		}
		// Correctness first: both schemes must agree with the language.
		var pairs []core.Pair
		for _, q := range queries[:8] {
			pairs = append(pairs, core.Pair{D: d, Q: q})
		}
		if err := idxScheme.VerifyAgainst(lang, pairs); err != nil {
			return nil, err
		}
		var prep []byte
		prepNs := timeOp(1, func() {
			var err error
			prep, err = idxScheme.Preprocess(d)
			if err != nil {
				panic(err)
			}
		})
		scan := answerer(scanScheme, d) // the baseline's Π is D itself
		idx := answerer(idxScheme, prep)
		qi := 0
		scanNs := timeOp(32, func() {
			_, _ = scan.Answer(queries[qi%len(queries)])
			qi++
		})
		idxNs := timeOp(4096, func() {
			_, _ = idx.Answer(queries[qi%len(queries)])
			qi++
		})
		t.AddRow(n, scanNs, idxNs, scanNs/idxNs, prepNs)
		scanSeries = append(scanSeries, core.Measurement{N: float64(n), Cost: scanNs})
		idxSeries = append(idxSeries, core.Measurement{N: float64(n), Cost: idxNs})
	}
	t.Note("%s", fitNote("scan answering", scanSeries))
	t.Note("%s", fitNote("indexed answering", idxSeries))
	t.Note("both columns time the prepared answerer the server probes; the scan baseline's Prepare only decodes D, so its column still grows with |D|")
	for _, row := range scanmodel.Table(scanmodel.PaperSSD(), 100, 64) {
		t.Note("model %s: scan %s vs indexed %s (paper: 1PB = 166,666s ≈ 46h ≈ 1.9d)",
			row.Label, row.ScanHuman, scanmodel.HumanDuration(row.IndexedSeconds))
	}
	return t, nil
}

// C1RangeSelection measures the §4(1) Boolean range query.
func C1RangeSelection(s Scale) (*Table, error) {
	t := &Table{
		ID:      "C1",
		Title:   "range selection: scan vs sorted-key index",
		Columns: []string{"rows", "scan ns/query", "indexed ns/query", "speedup"},
	}
	idxScheme := schemes.PointSelectionScheme() // its RangeQuery
	lang := schemes.RangeSelectionLanguage()
	var idxSeries []core.Measurement
	for _, n := range s.sizes([]int{1 << 8, 1 << 10, 1 << 12, 1 << 14},
		[]int{1 << 10, 1 << 13, 1 << 16, 1 << 18}) {
		rel := relation.Generate(relation.GenConfig{Rows: n, Seed: int64(n), KeyMax: int64(2 * n)})
		d := rel.Encode()
		rng := rand.New(rand.NewSource(int64(n)))
		queries := make([][]byte, 64)
		for i := range queries {
			lo := rng.Int63n(int64(2 * n))
			queries[i] = schemes.RangeQuery(lo, lo+rng.Int63n(64))
		}
		var pairs []core.Pair
		for _, q := range queries[:8] {
			pairs = append(pairs, core.Pair{D: d, Q: q})
		}
		if err := idxScheme.VerifyAgainst(lang, pairs); err != nil {
			return nil, err
		}
		prep, err := idxScheme.Preprocess(d)
		if err != nil {
			return nil, err
		}
		idx := answerer(idxScheme, prep)
		qi := 0
		scanNs := timeOp(32, func() {
			_, _ = lang.Contains(d, queries[qi%len(queries)])
			qi++
		})
		idxNs := timeOp(4096, func() {
			_, _ = idx.Answer(queries[qi%len(queries)])
			qi++
		})
		t.AddRow(n, scanNs, idxNs, scanNs/idxNs)
		idxSeries = append(idxSeries, core.Measurement{N: float64(n), Cost: idxNs})
	}
	t.Note("%s", fitNote("indexed answering", idxSeries))
	t.Note("the indexed column times the prepared answerer the server probes; the scan column is the language's reference decider over D")
	return t, nil
}

// C2ListSearch measures §4(2): sort once, binary-search many, in probe
// counts (machine-independent) and wall time.
func C2ListSearch(s Scale) (*Table, error) {
	t := &Table{
		ID:      "C2",
		Title:   "searching in a list: scan vs sort + binary search",
		Columns: []string{"|M|", "scan ns/query", "binsearch ns/query", "probes/query"},
	}
	var probeSeries []core.Measurement
	for _, n := range s.sizes([]int{1 << 10, 1 << 13, 1 << 16},
		[]int{1 << 12, 1 << 15, 1 << 18, 1 << 21}) {
		rng := rand.New(rand.NewSource(int64(n)))
		list := make([]int64, n)
		for i := range list {
			list[i] = rng.Int63()
		}
		idx := listsearch.NewIndex(list)
		probes := [1 << 8]int64{}
		var probeTargets [1 << 8]int64
		for i := range probeTargets {
			probeTargets[i] = rng.Int63()
		}
		qi := 0
		scanNs := timeOp(16, func() {
			listsearch.Scan(list, probeTargets[qi%len(probeTargets)])
			qi++
		})
		binNs := timeOp(4096, func() {
			_, p := idx.ContainsProbes(probeTargets[qi%len(probeTargets)])
			probes[qi%len(probes)] = int64(p)
			qi++
		})
		maxProbes := int64(0)
		for _, p := range probes {
			if p > maxProbes {
				maxProbes = p
			}
		}
		t.AddRow(n, scanNs, binNs, maxProbes)
		probeSeries = append(probeSeries, core.Measurement{N: float64(n), Cost: float64(maxProbes)})
	}
	t.Note("%s", fitNote("probe count", probeSeries))
	return t, nil
}

// C6Views measures §4(6): answering over materialized views vs the base
// relation.
func C6Views(s Scale) (*Table, error) {
	t := &Table{
		ID:      "C6",
		Title:   "query answering using views: base scan vs view index",
		Columns: []string{"rows", "|V(D)| rows", "base ns/query", "views ns/query", "speedup"},
	}
	return c6impl(t, s)
}
