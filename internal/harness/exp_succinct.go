package harness

// X10 measures the succinct-Π story end-to-end on the community-shaped
// harness graph: the 2-hop reachability labeling built on the compressed
// DAG versus the dense n²-bit closure matrix — artifact bytes, snapshot
// bytes, and per-probe answer latency through each scheme's prepared
// form. Every labeled verdict is checked against the dense oracle
// in-line, and the headline claim — at least a 2× snapshot-bytes
// reduction on this graph shape — is asserted, not just reported.

import (
	"fmt"
	"math/rand"

	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// x10Row is one graph size's measurements.
type x10Row struct {
	n                    int
	densePd, labelPd     int
	denseSnap, labelSnap int
	denseNs, labelNs     float64
	probes               int
}

// x10Run builds both artifacts on the X4 community shape, differentially
// verifies every probe, and measures sizes and probe latencies.
func x10Run(n, probeCount int) (x10Row, error) {
	dense := schemes.ReachabilityScheme()
	labels := schemes.ReachabilityLabelsScheme()
	// The X4 community shape: clustered blocks with a sparse cross-cut —
	// exactly the regime where SCC condensation + twin merging bites.
	g := graph.CommunityGraph(8, n/8, n/4, int64(n))
	data := g.Encode()

	densePd, err := dense.Preprocess(data)
	if err != nil {
		return x10Row{}, fmt.Errorf("X10: dense preprocess: %w", err)
	}
	labelPd, err := labels.Preprocess(data)
	if err != nil {
		return x10Row{}, fmt.Errorf("X10: labels preprocess: %w", err)
	}
	denseAns, err := dense.Prepare(densePd)
	if err != nil {
		return x10Row{}, fmt.Errorf("X10: dense prepare: %w", err)
	}
	labelAns, err := labels.Prepare(labelPd)
	if err != nil {
		return x10Row{}, fmt.Errorf("X10: labels prepare: %w", err)
	}

	snap := func(name string, pd []byte) int {
		return len(store.EncodeSnapshot(&store.Snapshot{SchemeName: name, Prep: pd}))
	}
	row := x10Row{
		n: g.N(), densePd: len(densePd), labelPd: len(labelPd),
		denseSnap: snap(dense.Name(), densePd), labelSnap: snap(labels.Name(), labelPd),
		probes: probeCount,
	}

	rng := rand.New(rand.NewSource(int64(n) + 73))
	probes := make([][]byte, probeCount)
	for i := range probes {
		probes[i] = schemes.NodePairQuery(rng.Intn(g.N()), rng.Intn(g.N()))
	}
	// In-line differential: every labeled verdict against the dense oracle.
	for i, q := range probes {
		want, err := denseAns.Answer(q)
		if err != nil {
			return x10Row{}, fmt.Errorf("X10: dense probe %d: %w", i, err)
		}
		got, err := labelAns.Answer(q)
		if err != nil {
			return x10Row{}, fmt.Errorf("X10: label probe %d: %w", i, err)
		}
		if got != want {
			return x10Row{}, fmt.Errorf("X10: probe %d: labels %v, dense %v — differential failure", i, got, want)
		}
	}

	i := 0
	row.denseNs = timeOp(probeCount, func() {
		denseAns.Answer(probes[i%probeCount])
		i++
	})
	i = 0
	row.labelNs = timeOp(probeCount, func() {
		labelAns.Answer(probes[i%probeCount])
		i++
	})

	if ratio := float64(row.denseSnap) / float64(row.labelSnap); ratio < 2 {
		return x10Row{}, fmt.Errorf("X10: n=%d: labels snapshot is only %.2f× smaller than dense, want ≥2×", n, ratio)
	}
	return row, nil
}

// X10Succinct compares dense and labeled reachability artifacts and probes.
func X10Succinct(s Scale) (*Table, error) {
	t := &Table{
		ID:    "X10",
		Title: "succinct Π: 2-hop labels on the compressed DAG vs the dense closure matrix",
		Columns: []string{"vertices", "dense Π B", "labels Π B", "Π ratio",
			"dense snap B", "labels snap B", "snap ratio", "dense probe ns", "label probe ns", "probes"},
	}
	probeCount := 512
	if s == Full {
		probeCount = 4096
	}
	for _, n := range s.sizes([]int{128, 256}, []int{256, 512, 1024}) {
		row, err := x10Run(n, probeCount)
		if err != nil {
			return nil, err
		}
		t.AddRow(row.n, row.densePd, row.labelPd, float64(row.densePd)/float64(row.labelPd),
			row.denseSnap, row.labelSnap, float64(row.denseSnap)/float64(row.labelSnap),
			row.denseNs, row.labelNs, row.probes)
	}
	t.Note("every labeled verdict differentially verified against the dense closure in-line")
	t.Note("labels Π = SCC condensation + false-twin merge, then a 2-hop (PLL) labeling of the compressed DAG")
	t.Note("snap B = the v3 snapshot file size; the ≥2× reduction is asserted, not just reported")
	return t, nil
}

// X10SuccinctMetrics regenerates X10's largest workload at the given scale
// and returns the headline numbers for the benchmark output: the dense/labels
// snapshot-bytes ratio and the labeled-probe latency next to the dense
// probe it replaces.
func X10SuccinctMetrics(s Scale) (snapRatio, labelProbeNs, denseProbeNs float64, err error) {
	sizes := s.sizes([]int{256}, []int{1024})
	row, err := x10Run(sizes[0], 512)
	if err != nil {
		return 0, 0, 0, err
	}
	return float64(row.denseSnap) / float64(row.labelSnap), row.labelNs, row.denseNs, nil
}
