package harness

import (
	"math/rand"

	"pitract/internal/btree"
	"pitract/internal/graph"
	"pitract/internal/pram"
	"pitract/internal/rmq"
)

// A1ClosureAblation compares the three transitive-closure implementations:
// sequential Warshall, the serving build (graph.NewClosure: SCC condensation,
// then one word-wide union of successor rows per component), and the PRAM
// repeated-squaring schedule (reporting its round count — the NC evidence).
func A1ClosureAblation(s Scale) (*Table, error) {
	t := &Table{
		ID:    "A1",
		Title: "transitive closure: Warshall vs condensation + row unions vs PRAM squaring",
		Columns: []string{"|V|", "warshall ns", "condensed ns", "pram ns",
			"pram rounds", "pram work"},
	}
	for _, n := range s.sizes([]int{16, 32, 64}, []int{32, 64, 128, 192}) {
		g := graph.RandomDirected(n, 3*n, int64(n))
		adj := g.AdjacencyMatrix()
		warshallNs := timeOp(3, func() { pram.WarshallClosure(adj) })
		condensedNs := timeOp(3, func() { graph.NewClosure(g) })
		var machine *pram.Machine
		pramNs := timeOp(1, func() {
			var mat *pram.BoolMatrix
			mat, machine = graph.ClosurePRAM(g)
			_ = mat
		})
		cost := machine.Cost()
		t.AddRow(n, warshallNs, condensedNs, pramNs, cost.Rounds, cost.Work)
	}
	t.Note("PRAM rounds grow polylog in |V| while its (simulated) work is O(n³ log n) — the NC² schedule")
	return t, nil
}

// A2BTreeFanout sweeps the B⁺-tree order: higher fanout lowers height (and
// probes) at the cost of wider nodes.
func A2BTreeFanout(s Scale) (*Table, error) {
	t := &Table{
		ID:      "A2",
		Title:   "B⁺-tree fanout ablation",
		Columns: []string{"order", "height", "probes/lookup", "lookup ns", "insert ns"},
	}
	n := s.sizes([]int{1 << 14}, []int{1 << 18})[0]
	rng := rand.New(rand.NewSource(9))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	for _, order := range []int{4, 8, 16, 64, 256} {
		tr := btree.MustNew(order)
		insertNs := timeOp(1, func() {
			for row, k := range keys {
				tr.Insert(k, row)
			}
		}) / float64(n)
		_, probes := tr.ContainsProbes(keys[n/2])
		qi := 0
		lookupNs := timeOp(4096, func() {
			tr.Contains(keys[qi%n])
			qi++
		})
		t.AddRow(order, tr.Height(), probes, lookupNs, insertNs)
	}
	t.Note("height (and probes) fall as log_order(n): Example 1's access-path knob")
	return t, nil
}

// A3RMQAblation contrasts the RMQ structures' preprocessing time and space
// against query time — the Fischer–Heun space saving the paper cites.
func A3RMQAblation(s Scale) (*Table, error) {
	t := &Table{
		ID:      "A3",
		Title:   "RMQ structures: build time, space, query time",
		Columns: []string{"structure", "n", "build ns", "aux words", "ns/query"},
	}
	n := s.sizes([]int{1 << 15}, []int{1 << 20})[0]
	rng := rand.New(rand.NewSource(2))
	a := make([]int64, n)
	for i := range a {
		a[i] = rng.Int63n(1 << 30)
	}
	type qr struct{ i, j int }
	queries := make([]qr, 256)
	for k := range queries {
		i := rng.Intn(n)
		queries[k] = qr{i, i + rng.Intn(n-i)}
	}
	build := []struct {
		name string
		mk   func() rmq.Querier
	}{
		{"naive", func() rmq.Querier { return rmq.NewNaive(a) }},
		{"sparse", func() rmq.Querier { return rmq.NewSparse(a) }},
		{"fischer-heun", func() rmq.Querier { return rmq.NewFischerHeun(a, 0) }},
	}
	for _, b := range build {
		var q rmq.Querier
		buildNs := timeOp(1, func() { q = b.mk() })
		iters := 4096
		if b.name == "naive" {
			iters = 8
		}
		qi := 0
		queryNs := timeOp(iters, func() {
			q.Query(queries[qi%len(queries)].i, queries[qi%len(queries)].j)
			qi++
		})
		t.AddRow(b.name, n, buildNs, q.Words(), queryNs)
	}
	t.Note("fischer-heun trades a slower build for sparse-table query speed at a fraction of the space")
	return t, nil
}
