package harness

import (
	"math/rand"

	"pitract/internal/circuit"
	"pitract/internal/core"
	"pitract/internal/schemes"
	"pitract/internal/tm"
)

// C8CVP reproduces §4(8)/§6: CVP instances become Π-tractable once the
// circuit-plus-inputs is treated as the data part — evaluate once, answer
// every gate-value query in O(1).
func C8CVP(s Scale) (*Table, error) {
	t := &Table{
		ID:    "C8",
		Title: "CVP: per-query evaluation vs preprocess-once gate values",
		Columns: []string{"gates", "eval-per-query ns", "readout ns/query",
			"preprocess ns", "speedup"},
	}
	gateScheme := schemes.CVPGateValueScheme()
	lang := schemes.CVPGateLanguage()
	var readoutSeries []core.Measurement
	for _, gates := range s.sizes([]int{1 << 8, 1 << 11, 1 << 14},
		[]int{1 << 10, 1 << 13, 1 << 16, 1 << 18}) {
		circ := circuit.Generate(circuit.GenConfig{Inputs: 16, Gates: gates, Seed: int64(gates)})
		inst := &circuit.Instance{Circuit: circ, Inputs: circuit.RandomInputs(16, int64(gates)+1)}
		d := circuit.EncodeInstance(inst)
		rng := rand.New(rand.NewSource(int64(gates)))
		queries := make([][]byte, 64)
		for i := range queries {
			queries[i] = schemes.GateQuery(rng.Intn(circ.Size()))
		}
		var pairs []core.Pair
		for _, q := range queries[:8] {
			pairs = append(pairs, core.Pair{D: d, Q: q})
		}
		if err := gateScheme.VerifyAgainst(lang, pairs); err != nil {
			return nil, err
		}
		var prep []byte
		prepNs := timeOp(1, func() {
			var err error
			prep, err = gateScheme.Preprocess(d)
			if err != nil {
				panic(err)
			}
		})
		readout := answerer(gateScheme, prep)
		qi := 0
		evalNs := timeOp(8, func() {
			_, _ = lang.Contains(d, queries[qi%len(queries)])
			qi++
		})
		readNs := timeOp(4096, func() {
			_, _ = readout.Answer(queries[qi%len(queries)])
			qi++
		})
		t.AddRow(circ.Size(), evalNs, readNs, prepNs, evalNs/readNs)
		readoutSeries = append(readoutSeries, core.Measurement{N: float64(circ.Size()), Cost: readNs})
	}
	t.Note("%s", fitNote("gate-value readout", readoutSeries))
	return t, nil
}

// T9Separation reproduces Theorem 9: under the Υ0 factorization (empty data
// part) preprocessing sees only ε, so per-query cost must grow with the
// instance — in contrast to C8's O(1) readout. The growth fits make the
// separation measurable.
func T9Separation(s Scale) (*Table, error) {
	t := &Table{
		ID:      "T9",
		Title:   "CVP under Υ0 (empty data part): preprocessing cannot help",
		Columns: []string{"gates", "Υ0 ns/query", "refactorized ns/query"},
	}
	noPre := schemes.CVPNoPreprocessScheme()
	gateScheme := schemes.CVPGateValueScheme()
	var upsilon0, refactored []core.Measurement
	for _, gates := range s.sizes([]int{1 << 8, 1 << 11, 1 << 14},
		[]int{1 << 10, 1 << 13, 1 << 16}) {
		circ := circuit.Generate(circuit.GenConfig{Inputs: 12, Gates: gates, Seed: int64(gates)})
		inst := &circuit.Instance{Circuit: circ, Inputs: circuit.RandomInputs(12, 9)}
		d := circuit.EncodeInstance(inst)
		prep, err := gateScheme.Preprocess(d)
		if err != nil {
			return nil, err
		}
		outQuery := schemes.GateQuery(int(circ.Output))
		eval := answerer(noPre, nil)
		read := answerer(gateScheme, prep)
		// Υ0: the whole instance is the query; answered from scratch.
		slowNs := timeOp(8, func() {
			_, _ = eval.Answer(d)
		})
		fastNs := timeOp(4096, func() {
			_, _ = read.Answer(outQuery)
		})
		// Agreement.
		a, err := eval.Answer(d)
		if err != nil {
			return nil, err
		}
		b, err := read.Answer(outQuery)
		if err != nil {
			return nil, err
		}
		if a != b {
			return nil, errMismatch("T9", 0)
		}
		t.AddRow(circ.Size(), slowNs, fastNs)
		upsilon0 = append(upsilon0, core.Measurement{N: float64(circ.Size()), Cost: slowNs})
		refactored = append(refactored, core.Measurement{N: float64(circ.Size()), Cost: fastNs})
	}
	t.Note("%s", fitNote("Υ0 answering", upsilon0))
	t.Note("%s", fitNote("re-factorized answering", refactored))
	t.Note("polynomial vs constant growth is the Theorem 9 separation, observed")
	return t, nil
}

// T5Chain reproduces Theorem 5 / Corollary 6: decide TM languages through
// the full P → CVP → BDS pipeline, comparing direct simulation against the
// transported Π-scheme.
func T5Chain(s Scale) (*Table, error) {
	t := &Table{
		ID:    "T5",
		Title: "the completeness chain: DTM → Cook–Levin circuit → BDS → Π-scheme",
		Columns: []string{"machine", "n", "circuit gates", "chain prep ns",
			"answer ns/query", "agree"},
	}
	rng := rand.New(rand.NewSource(55))
	for _, cm := range tm.SampleMachines() {
		n := 6
		if cm.M.Name == "palindrome" || cm.M.Name == "0n1n" {
			n = 4
		}
		circ, err := cm.Compile(n)
		if err != nil {
			return nil, err
		}
		scheme := schemes.TMSchemeViaBDS(cm)
		agree := true
		var prepNs, ansNs float64
		samples := 8
		for k := 0; k < samples; k++ {
			in := make([]bool, n)
			for i := range in {
				in[i] = rng.Intn(2) == 1
			}
			x := schemes.EncodeBits(in)
			var prep []byte
			prepNs += timeOp(1, func() {
				var err error
				prep, err = scheme.Preprocess(x)
				if err != nil {
					panic(err)
				}
			})
			a := answerer(scheme, prep)
			var got bool
			ansNs += timeOp(64, func() {
				var err error
				got, err = a.Answer(x)
				if err != nil {
					panic(err)
				}
			})
			want := cm.M.Run(in, cm.Bound(n)).Accepted
			if got != want {
				agree = false
			}
		}
		t.AddRow(cm.M.Name, n, circ.Size(), prepNs/float64(samples), ansNs/float64(samples), agree)
		if !agree {
			return nil, errMismatch("T5", 0)
		}
	}
	t.Note("every sample machine's language is decided exactly by the transported BDS scheme (Corollary 6)")
	return t, nil
}
