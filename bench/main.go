// Command bench is the repository's serving benchmark: it stands the HTTP
// server up in-process on a loopback listener, drives five traffic mixes
// through it from two closed-loop connections, checks every verdict against
// an oracle that never sees Π, and prints end-to-end and per-layer metrics
// by name. See README.md in this directory for the protocol and the tables.
//
//	go run -C bench . [-workload w] [-seed n] [-seconds s] [-trace 0|1]
//	go run -C bench . compare A1.json A2.json … vs B1.json B2.json …
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "run one workload (default: all five, segments interleaved)")
	seed := fs.Int64("seed", 1, "derives all data and request bodies")
	seconds := fs.Float64("seconds", 10, "measured window per workload, cut into quarter-second segments")
	trace := fs.Int("trace", 0, "1: also run the layer ladder and report the per-layer metrics")
	quick := fs.Bool("quick", false, "test sizes (2^12 rows / 256 vertices); numbers mean nothing")
	outDir := fs.String("out", "out", "directory for data directories, traces and the results file")
	fs.Parse(os.Args[1:])
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		os.Exit(2)
	}

	cfg := &config{
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		segment:  250 * time.Millisecond,
		warm:     3 * time.Second,
		setupFor: 2500 * time.Millisecond,
		quick:    *quick,
		trace:    *trace != 0,
		rungTime: 200 * time.Millisecond,
		outDir:   *outDir,
	}
	if cfg.quick {
		cfg.warm, cfg.rungTime = 150*time.Millisecond, 5*time.Millisecond
	}
	var chosen []*spec
	if *workload == "" {
		chosen = specs
	} else if sp := specByName(*workload); sp != nil {
		chosen = []*spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	res, err := execute(cfg, chosen, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// environment is recorded with every result so two files can be told apart.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	SegmentS   float64 `json:"segment_s"`
	Trace      bool    `json:"trace"`
	Quick      bool    `json:"quick,omitempty"`
}

// results is the compact, diffable record of one invocation: workload →
// metric → {value, unit, spread, n}, plus the environment and the SHA-256
// of each workload's request bodies.
type results struct {
	Env         environment          `json:"env"`
	Correct     bool                 `json:"correct"`
	Attempted   int64                `json:"attempted"`
	Failed      int64                `json:"failed"`
	InputSHA256 map[string]string    `json:"input_sha256"`
	Workloads   map[string]metricSet `json:"workloads"`
}

// encode renders the results one metric per line, names sorted, so two files
// diff line by line.
func (res *results) encode() []byte {
	var b bytes.Buffer
	compact := func(v interface{}) []byte {
		j, err := json.Marshal(v)
		if err != nil {
			panic(err) // plain structs and maps of strings and numbers
		}
		return j
	}
	fmt.Fprintf(&b, "{\n \"env\": %s,\n \"correct\": %v,\n \"attempted\": %d,\n \"failed\": %d,\n", compact(res.Env), res.Correct, res.Attempted, res.Failed)
	fmt.Fprintf(&b, " \"input_sha256\": %s,\n \"workloads\": {", compact(res.InputSHA256))
	names := make([]string, 0, len(res.Workloads))
	for w := range res.Workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for i, w := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "\n  %s: {", compact(w))
		for k, name := range res.Workloads[w].names() {
			if k > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "\n   %s: %s", compact(name), compact(res.Workloads[w][name]))
		}
		b.WriteString("\n  }")
	}
	b.WriteString("\n }\n}\n")
	return b.Bytes()
}

// execute runs the protocol over the chosen workloads: set-up and oracle one
// workload at a time, warm-up, then the measured segments round-robin across
// workloads so drift on a shared box lands on all of them alike, then each
// workload's ladder (traced runs only) and restart leg.
func execute(cfg *config, chosen []*spec, out io.Writer) (*results, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	runs := make([]*run, len(chosen))
	for i, sp := range chosen {
		runs[i] = newRun(sp, cfg)
	}
	err := measure(cfg, runs)
	for _, r := range runs {
		if ferr := r.finish(); err == nil {
			err = ferr
		}
	}
	if err != nil {
		return nil, err
	}

	res := &results{
		Env: environment{
			GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Seed: cfg.seed, Seconds: cfg.window.Seconds(), SegmentS: cfg.segment.Seconds(), Trace: cfg.trace, Quick: cfg.quick,
		},
		InputSHA256: map[string]string{},
		Workloads:   map[string]metricSet{},
	}
	for _, r := range runs {
		res.Attempted += r.attempted()
		res.Failed += r.failed()
		res.InputSHA256[r.sp.name] = r.sha
		res.Workloads[r.sp.name] = r.ms
	}
	res.Correct = res.Failed == 0
	report(out, cfg, runs, res)

	path := filepath.Join(cfg.outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", tag(chosen), cfg.seed, b2i(cfg.trace)))
	if err := os.WriteFile(path, res.encode(), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "results: %s\n", path)
	return res, printContractLine(out, cfg, runs, res)
}

func measure(cfg *config, runs []*run) error {
	for _, r := range runs {
		r.generate()
		if err := r.setup(); err != nil {
			return err
		}
		r.warmup()
	}
	for s := 0; s < int(cfg.window/cfg.segment) || s == 0; s++ {
		for _, r := range runs {
			r.segment()
		}
	}
	for _, r := range runs {
		if err := r.finishWindow(); err != nil {
			return err
		}
		if r.sp.writer {
			r.checkWritten()
		}
		if cfg.trace {
			if err := r.ladder(); err != nil {
				return err
			}
		}
		if r.sp.writer {
			if err := r.restartLeg(); err != nil {
				return err
			}
		}
	}
	return nil
}

// report prints every metric by name with its unit.
func report(out io.Writer, cfg *config, runs []*run, res *results) {
	e := res.Env
	fmt.Fprintf(out, "bench: %s GOMAXPROCS=%d nproc=%d seed=%d window=%.1fs in %.2fs segments, 2 closed-loop connections, trace=%v\n",
		e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.Seed, e.Seconds, e.SegmentS, e.Trace)
	for _, r := range runs {
		fmt.Fprintf(out, "\n== %s  attempted=%d failed=%d  input_sha256=%s\n", r.sp.name, r.attempted(), r.failed(), r.sha)
		for _, p := range r.problems {
			fmt.Fprintf(out, "   FAILED CHECK: %s\n", p)
		}
		if n := r.ms["query_p99_us"].N; n < 1000 {
			fmt.Fprintf(out, "   note: %d query samples: fewer than ten lie beyond query_p99_us, read it as a maximum\n", n)
		}
		for _, d := range endToEnd {
			if d.only != "" && d.only != r.sp.name {
				continue
			}
			printMetric(out, d.name, r.ms[d.name], fmt.Sprintf("%s is better, bound %.2f", d.better, d.bound))
		}
		for _, d := range perLayer {
			if m, ok := r.ms[d.name]; ok && (cfg.trace || m.Value != 0) {
				printMetric(out, d.name, m, "")
			}
		}
		for _, d := range r.disagreements {
			fmt.Fprintf(out, "   bench.disagreements: %s\n", d)
		}
	}
	fmt.Fprintln(out)
}

func printMetric(out io.Writer, name string, m metric, note string) {
	line := fmt.Sprintf("   %-36s %14.6g %-6s", name, m.Value, m.Unit)
	if m.Spread != 0 {
		line += fmt.Sprintf(" spread %.3f", m.Spread)
	}
	if m.N != 0 {
		line += fmt.Sprintf(" n=%d", m.N)
	}
	if note != "" {
		line += "  (" + note + ")"
	}
	fmt.Fprintln(out, strings.TrimRight(line, " "))
}

// printContractLine ends standard output with the one JSON object the
// driver reads: the end-to-end metrics of an untraced run, the per-layer
// ones of a traced run. With several workloads in one invocation the names
// are prefixed "<workload>/".
func printContractLine(out io.Writer, cfg *config, runs []*run, res *results) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, r := range runs {
		prefix := ""
		if len(runs) > 1 {
			prefix = r.sp.name + "/"
		}
		for name, m := range r.ms {
			if contractMetric(name, cfg.trace) {
				line.Metrics[prefix+name] = value{m.Value, m.Unit}
			}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// contractMetric reports whether BENCHMARK.json lists name in the set a run
// of this kind prints: end_to_end without -trace, per_layer with it.
func contractMetric(name string, trace bool) bool {
	for _, d := range endToEnd {
		if d.name == name {
			return contractEndToEnd(d) != trace
		}
	}
	return trace
}

func tag(chosen []*spec) string {
	if len(chosen) == 1 {
		return chosen[0].name
	}
	return "all"
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
