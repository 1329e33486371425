package harness

import (
	"math/rand"

	"pitract/internal/compress"
	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/inc"
	"pitract/internal/relation"
	"pitract/internal/schemes"
	"pitract/internal/views"
)

// F1BDSFactorizations reproduces Figure 1: the same BDS queries under
// Υ_BDS (preprocess G once, constant-time answering) and Υ′ (preprocess
// nothing, full search per query).
func F1BDSFactorizations(s Scale) (*Table, error) {
	t := &Table{
		ID:    "F1",
		Title: "BDS under Υ_BDS (preprocessed) vs Υ′ (nothing preprocessed)",
		Columns: []string{"|V|", "|E|", "Υ_BDS prep ns", "Υ_BDS ns/query",
			"Υ′ ns/query", "slowdown"},
	}
	idxScheme := schemes.BDSScheme()
	noPre := schemes.BDSNoPreprocessScheme()
	var fast, slow []core.Measurement
	for _, n := range s.sizes([]int{1 << 7, 1 << 9, 1 << 11},
		[]int{1 << 8, 1 << 10, 1 << 12, 1 << 14}) {
		g := graph.RandomConnectedUndirected(n, 3*n, int64(n))
		d := g.Encode()
		rng := rand.New(rand.NewSource(int64(n) + 3))
		queries := make([][]byte, 128)
		instQueries := make([][]byte, len(queries))
		for i := range queries {
			queries[i] = schemes.NodePairQuery(rng.Intn(n), rng.Intn(n))
			instQueries[i] = core.PadPair(d, queries[i])
		}
		var prep []byte
		prepNs := timeOp(1, func() {
			var err error
			prep, err = idxScheme.Preprocess(d)
			if err != nil {
				panic(err)
			}
		})
		idx := answerer(idxScheme, prep)
		search := answerer(noPre, nil)
		// Agreement spot check between the two factorizations.
		for i := 0; i < 8; i++ {
			a, err := idx.Answer(queries[i])
			if err != nil {
				return nil, err
			}
			b, err := search.Answer(instQueries[i])
			if err != nil {
				return nil, err
			}
			if a != b {
				return nil, errMismatch("F1", i)
			}
		}
		qi := 0
		fastNs := timeOp(4096, func() {
			_, _ = idx.Answer(queries[qi%len(queries)])
			qi++
		})
		slowNs := timeOp(8, func() {
			_, _ = search.Answer(instQueries[qi%len(instQueries)])
			qi++
		})
		t.AddRow(n, g.M(), prepNs, fastNs, slowNs, slowNs/fastNs)
		fast = append(fast, core.Measurement{N: float64(n), Cost: fastNs})
		slow = append(slow, core.Measurement{N: float64(n), Cost: slowNs})
	}
	t.Note("%s", fitNote("Υ_BDS answering", fast))
	t.Note("%s", fitNote("Υ′ answering", slow))
	t.Note("Υ_BDS is Π-tractable; Υ′ re-searches per query — the Figure 1 contrast")
	return t, nil
}

type mismatchErr struct {
	where string
	idx   int
}

func (e *mismatchErr) Error() string {
	return e.where + ": factorizations disagree on query"
}

func errMismatch(where string, idx int) error { return &mismatchErr{where, idx} }

// E3Reachability reproduces Example 3: BFS per query vs the precomputed
// closure matrix.
func E3Reachability(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "reachability: BFS per query vs all-pairs closure",
		Columns: []string{"|V|", "|E|", "closure prep ns", "matrix ns/query", "BFS ns/query", "speedup"},
	}
	idxScheme := schemes.ReachabilityScheme()
	bfsScheme := schemes.ReachabilityBFSScheme()
	var matrixSeries []core.Measurement
	for _, n := range s.sizes([]int{1 << 6, 1 << 8, 1 << 10},
		[]int{1 << 7, 1 << 9, 1 << 11, 1 << 12}) {
		g := graph.RandomDirected(n, 4*n, int64(n))
		d := g.Encode()
		rng := rand.New(rand.NewSource(int64(n)))
		queries := make([][]byte, 128)
		for i := range queries {
			queries[i] = schemes.NodePairQuery(rng.Intn(n), rng.Intn(n))
		}
		var prep []byte
		prepNs := timeOp(1, func() {
			var err error
			prep, err = idxScheme.Preprocess(d)
			if err != nil {
				panic(err)
			}
		})
		matrix := answerer(idxScheme, prep)
		bfs := answerer(bfsScheme, d) // the baseline's Π is D itself
		for i := 0; i < 8; i++ {
			a, err := matrix.Answer(queries[i])
			if err != nil {
				return nil, err
			}
			b, err := bfs.Answer(queries[i])
			if err != nil {
				return nil, err
			}
			if a != b {
				return nil, errMismatch("E3", i)
			}
		}
		qi := 0
		matNs := timeOp(4096, func() {
			_, _ = matrix.Answer(queries[qi%len(queries)])
			qi++
		})
		bfsNs := timeOp(16, func() {
			_, _ = bfs.Answer(queries[qi%len(queries)])
			qi++
		})
		t.AddRow(n, g.M(), prepNs, matNs, bfsNs, bfsNs/matNs)
		matrixSeries = append(matrixSeries, core.Measurement{N: float64(n), Cost: matNs})
	}
	t.Note("%s", fitNote("matrix answering", matrixSeries))
	t.Note("both columns time the prepared answerer the server probes; the BFS baseline's Prepare only decodes and freezes G, so a query is still a bidirectional search, bounded by |V|+|E| — short on these random graphs, O(|V|+|E|) on a long path")
	return t, nil
}

// C5Compression reproduces §4(5): compression ratio and query cost on the
// compressed structure, with answers verified against the original.
func C5Compression(s Scale) (*Table, error) {
	t := &Table{
		ID:    "C5",
		Title: "query-preserving compression for reachability",
		Columns: []string{"|V|", "|E|", "|Vc|", "|Ec|", "vertex ratio",
			"compressed ns/query", "BFS-on-original ns/query"},
	}
	for _, communities := range s.sizes([]int{4, 8, 16}, []int{8, 16, 32, 64}) {
		size := 24
		g := graph.CommunityGraph(communities, size, communities*2, int64(communities))
		c, err := compress.Compress(g)
		if err != nil {
			return nil, err
		}
		n := g.N()
		rng := rand.New(rand.NewSource(int64(n)))
		type qp struct{ u, v int }
		queries := make([]qp, 256)
		for i := range queries {
			queries[i] = qp{rng.Intn(n), rng.Intn(n)}
		}
		// Verify exactness on a sample.
		for _, q := range queries[:32] {
			want := g.Reachable(q.u, q.v)
			got, err := c.Reach(q.u, q.v)
			if err != nil {
				return nil, err
			}
			if got != want {
				return nil, errMismatch("C5", 0)
			}
		}
		qi := 0
		compNs := timeOp(4096, func() {
			_, _ = c.Reach(queries[qi%len(queries)].u, queries[qi%len(queries)].v)
			qi++
		})
		bfsNs := timeOp(16, func() {
			g.Reachable(queries[qi%len(queries)].u, queries[qi%len(queries)].v)
			qi++
		})
		vr, _ := c.Ratio(g)
		t.AddRow(n, g.M(), c.Dc.N(), c.Dc.M(), vr, compNs, bfsNs)
	}
	t.Note("answers on the compressed graph are exact (query-preserving); ratios shrink with community size")
	return t, nil
}

// C7Incremental reproduces §4(7): incremental maintenance cost tracks
// |CHANGED|, not |D|.
func C7Incremental(s Scale) (*Table, error) {
	t := &Table{
		ID:    "C7",
		Title: "bounded incremental reachability maintenance",
		Columns: []string{"|V|", "inserts", "|CHANGED|", "work (words)",
			"recompute (words)", "work/|CHANGED|"},
	}
	for _, n := range s.sizes([]int{1 << 7, 1 << 9, 1 << 11},
		[]int{1 << 8, 1 << 10, 1 << 12, 1 << 13}) {
		g := graph.RandomDirected(n, n, int64(n))
		idx, err := inc.New(g)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(n) + 1))
		inserts := 32
		for i := 0; i < inserts; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if err := idx.InsertEdge(u, v); err != nil {
				return nil, err
			}
		}
		led := idx.Ledger()
		ratio := float64(led.WorkWords) / float64(maxI64(led.Changed(), 1))
		t.AddRow(n, led.Updates, led.Changed(), led.WorkWords,
			idx.RecomputeCostWords()*int64(led.Updates), ratio)
	}
	t.Note("work per changed pair stays bounded while recompute cost grows with |D| — the Ramalingam–Reps criterion")
	return t, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// c6impl is the body of C6Views (declared in exp_basics.go for the table
// shape): materialized views vs base-relation scans.
func c6impl(t *Table, s Scale) (*Table, error) {
	for _, n := range s.sizes([]int{1 << 10, 1 << 13, 1 << 16}, []int{1 << 12, 1 << 15, 1 << 18}) {
		rel := relation.Generate(relation.GenConfig{Rows: n, Seed: int64(n), KeyMax: int64(n)})
		// Views cover a narrow hot range: 1/16th of the key space.
		hotHi := int64(n / 16)
		set, err := views.Materialize(rel, []views.Def{
			{Name: "hot", Attr: "key", Lo: 0, Hi: hotHi},
		})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(n)))
		queries := make([]int64, 128)
		for i := range queries {
			queries[i] = rng.Int63n(hotHi + 1)
		}
		// Exactness against the base relation.
		for _, c := range queries[:16] {
			want, err := rel.ScanPointSelect("key", relation.Int(c))
			if err != nil {
				return nil, err
			}
			got, err := set.AnswerPoint("key", c)
			if err != nil {
				return nil, err
			}
			if got != want {
				return nil, errMismatch("C6", 0)
			}
		}
		qi := 0
		baseNs := timeOp(16, func() {
			_, _ = rel.ScanPointSelect("key", relation.Int(queries[qi%len(queries)]))
			qi++
		})
		viewNs := timeOp(4096, func() {
			_, _ = set.AnswerPoint("key", queries[qi%len(queries)])
			qi++
		})
		t.AddRow(n, set.TotalRows(), baseNs, viewNs, baseNs/viewNs)
	}
	t.Note("|V(D)| ≪ |D|: queries covered by views never touch the base relation")
	return t, nil
}
