// Package harness regenerates every figure, example and case study of the
// paper as a measured table. Each experiment has an id (E1, E3, F1…F2,
// C1…C12, T5, T9, L2, P10, A1…A3, plus X1…X2 for the PRAM/batch engine;
// All is the index), a generator that runs the workload at several sizes,
// and — where the paper makes a growth claim — a fitted growth label from
// core.Classify.
//
// The harness is deliberately self-contained: `pitract run <id>` prints the
// table, `go test -bench 'BenchmarkExperiment/<id>$'` measures the same
// code under the benchmark driver. It imports nothing above
// internal/schemes (TestHarnessImportsNothingAboveSchemes): the serving
// stack — store, shard, server, cache, obs — is measured by the bench/
// module and asserted by those packages' own tests, never from here.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"pitract/internal/core"
)

// Table is one experiment's rendered result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e6:
		return fmt.Sprintf("%.3g", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Note records a free-text observation (growth fits, ratios, verdicts).
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Scale selects experiment sizes: Quick keeps the whole suite in seconds
// (tests, CI); Full runs each experiment's larger size sweep.
type Scale int

const (
	// Quick is the test/CI scale.
	Quick Scale = iota
	// Full is the larger-sweep scale.
	Full
)

// sizes returns q for Quick and f for Full.
func (s Scale) sizes(q, f []int) []int {
	if s == Full {
		return f
	}
	return q
}

// parallelism is the worker count the parallel experiments (X1, X2) use;
// 0 means runtime.GOMAXPROCS(0). It is a process-wide knob so the CLI's
// -parallel flag reaches the experiment generators without threading a
// parameter through every Run signature.
var parallelism atomic.Int32

// SetParallelism sets the worker count for the parallel experiments.
// n <= 0 restores the default (GOMAXPROCS).
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int32(n))
}

// Parallelism reports the effective worker count for the parallel
// experiments.
func Parallelism() int {
	if p := parallelism.Load(); p > 0 {
		return int(p)
	}
	return runtime.GOMAXPROCS(0)
}

// timeOp measures the mean wall time of f over iters runs, in nanoseconds.
func timeOp(iters int, f func()) float64 {
	if iters < 1 {
		iters = 1
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

// fitNote renders a growth fit for a measurement series, or the error.
func fitNote(label string, ms []core.Measurement) string {
	fit, err := core.Classify(ms)
	if err != nil {
		return fmt.Sprintf("%s: unclassifiable (%v)", label, err)
	}
	return fmt.Sprintf("%s: %s growth (log-log slope %.2f, R² %.2f)",
		label, fit.Growth, fit.Exponent, fit.LogLogR2)
}

// mustFit classifies and panics on error; experiments construct their
// sweeps to satisfy Classify's preconditions.
func mustFit(ms []core.Measurement) core.Fit {
	fit, err := core.Classify(ms)
	if err != nil {
		panic(err)
	}
	return fit
}

// Experiment couples an id with its generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(s Scale) (*Table, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Example 1 / §1: point selection — scan vs B⁺-tree, plus the 1PB arithmetic", E1PointSelection},
		{"F1", "Figure 1: two factorizations of BDS", F1BDSFactorizations},
		{"F2", "Figure 2: the class landscape", F2Landscape},
		{"E3", "Example 3: reachability — BFS per query vs closure matrix", E3Reachability},
		{"C1", "§4(1): range selection", C1RangeSelection},
		{"C2", "§4(2): searching in a list", C2ListSearch},
		{"C3", "§4(3): minimum range queries", C3RMQ},
		{"C4", "§4(4): lowest common ancestors", C4LCA},
		{"C5", "§4(5): query-preserving compression", C5Compression},
		{"C6", "§4(6): query answering using views", C6Views},
		{"C7", "§4(7): bounded incremental evaluation", C7Incremental},
		{"C8", "§4(8)/§6: CVP made Π-tractable", C8CVP},
		{"C9", "§4(9): vertex cover via Buss kernelization", C9VertexCover},
		{"C10", "§8(5): top-k answering with early termination", C10TopK},
		{"C11", "§1: incremental preprocessing of Π(D ⊕ ∆D)", C11IncrementalPreprocessing},
		{"C12", "§8(3)+Def.1 remark: function schemes and query rewriting λ", C12FunctionAndRewriting},
		{"T5", "Theorem 5 / Corollary 6: the P → CVP → BDS chain", T5Chain},
		{"L2", "Lemma 2: transitivity of ≤NC_fa via padding", L2Composition},
		{"T9", "Theorem 9: separation — the Υ0 factorization cannot be helped", T9Separation},
		{"P10", "Proposition 10 / §7: F-reductions among Π-tractable classes", P10FReductions},
		{"A1", "ablation: transitive closure representations", A1ClosureAblation},
		{"A2", "ablation: B⁺-tree fanout", A2BTreeFanout},
		{"A3", "ablation: RMQ structures", A3RMQAblation},
		{"X1", "parallel PRAM executor vs the sequential oracle", X1ParallelPRAM},
		{"X2", "concurrent batch answering vs one-at-a-time", X2BatchAnswering},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
