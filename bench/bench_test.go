package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// manifest is the shape of ../BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  *float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func quickConfig(t *testing.T) *config {
	return &config{
		seed: 1, window: 200 * time.Millisecond, segment: 200 * time.Millisecond, warm: 60 * time.Millisecond,
		quick: true, rungTime: 2 * time.Millisecond, outDir: t.TempDir(),
	}
}

// TestManifestMatchesTables pins BENCHMARK.json to the tables the program
// prints from: same workloads and reasons, same metric names, units,
// directions and bounds.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	var e2e, layer []metricDef
	for _, d := range endToEnd {
		if contractEndToEnd(d) {
			e2e = append(e2e, d)
		} else {
			layer = append(layer, d)
		}
	}
	layer = append(layer, perLayer...)
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			better := w.better
			if better == "" {
				better = "lower"
			}
			if g.Name != w.name || g.Unit != w.unit || (bounded && g.Better != better) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
			if bounded && (g.Bound == nil || *g.Bound != w.bound) {
				t.Errorf("%s %s: bound differs from the program's %v", kind, g.Name, w.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: a per-layer metric has no bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, e2e, true)
	check("per_layer", m.PerLayer, layer, false)
}

// TestQuickRunEmitsEveryMetric runs the whole protocol — every workload,
// the ladder, the restart leg — at test sizes and checks that each metric
// BENCHMARK.json names comes out once per workload, finite and in its unit,
// in the run kind (traced or not) the contract assigns it to.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	m := readManifest(t)
	cfg := quickConfig(t)
	cfg.trace = true
	var out bytes.Buffer
	res, err := execute(cfg, specs, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the contract object: %v", err)
	}
	if want := len(specs) * len(m.PerLayer); len(last.Metrics) != want {
		t.Errorf("traced run printed %d metrics, want %d (every per_layer name, per workload)", len(last.Metrics), want)
	}
	for _, sp := range specs {
		ms := res.Workloads[sp.name]
		for _, d := range m.PerLayer {
			got, ok := last.Metrics[sp.name+"/"+d.Name]
			if !ok || got.Unit != d.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: per-layer metric %s: printed %+v (present %v), want a finite value in %s", sp.name, d.Name, got, ok, d.Unit)
			}
		}
		for _, d := range m.EndToEnd {
			got, ok := ms[d.Name]
			if !ok || got.Unit != d.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a positive finite value in %s", sp.name, d.Name, got, ok, d.Unit)
			}
			if contractMetric(d.Name, true) || !contractMetric(d.Name, false) {
				t.Errorf("end-to-end metric %s must be printed by untraced runs only", d.Name)
			}
		}
	}
	for _, name := range []string{"patches_per_s", "patch_p50_ms", "reload_s", "store.wal_append_ms", "store.log_replay_ms"} {
		if v := res.Workloads["patch_mixed"][name].Value; !(v > 0) {
			t.Errorf("patch_mixed: %s = %v, want > 0", name, v)
		}
	}
	if v := res.Workloads["shard_reach_batch"]["shard.answer_ns"].Value; !(v > 0) {
		t.Errorf("shard_reach_batch: shard.answer_ns = %v, want > 0", v)
	}
	for _, sp := range specs {
		if _, err := os.Stat(filepath.Join(cfg.outDir, sp.name+".trace.json")); err != nil {
			t.Errorf("no trace file for %s: %v", sp.name, err)
		}
	}
	left, err := filepath.Glob(filepath.Join(cfg.outDir, "data-*"))
	if err != nil || len(left) > 0 {
		t.Errorf("data directories left behind: %v (%v)", left, err)
	}
}

// TestSameSeedSameTraffic: the seed alone fixes every byte sent.
func TestSameSeedSameTraffic(t *testing.T) {
	for _, sp := range specs {
		gen := func(seed int64) *run {
			cfg := quickConfig(t)
			cfg.seed = seed
			r := newRun(sp, cfg)
			r.generate()
			return r
		}
		a, b, c := gen(7), gen(7), gen(8)
		if a.sha != b.sha || !bytes.Equal(a.regBody, b.regBody) || len(a.reqs) != len(b.reqs) {
			t.Fatalf("%s: the same seed produced different traffic", sp.name)
		}
		for i := range a.reqs {
			if !bytes.Equal(a.reqs[i].body, b.reqs[i].body) {
				t.Fatalf("%s: request %d differs between two runs of one seed", sp.name, i)
			}
		}
		if a.sha == c.sha {
			t.Errorf("%s: seeds 7 and 8 produced the same traffic", sp.name)
		}
	}
}

// TestCorruptOracleIsCaught verifies the verifier: one flipped expectation
// must surface as a failed request, failed_share above 0 and correct=false.
func TestCorruptOracleIsCaught(t *testing.T) {
	cfg := quickConfig(t)
	cfg.corruptOracle = true
	res, err := execute(cfg, []*spec{specByName("point_single")}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	share := res.Workloads["point_single"]["failed_share"].Value
	if res.Correct || res.Failed == 0 || !(share > 0) {
		t.Fatalf("a corrupted oracle went unnoticed: correct=%v failed=%d failed_share=%v", res.Correct, res.Failed, share)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v, want 1, 3", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate float64) string {
		res := results{Workloads: map[string]metricSet{"point_single": {}}}
		res.Workloads["point_single"].set("answers_per_s", rate)
		res.Workloads["point_single"].set("query_p50_us", 50)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, res.encode(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var a, same, slow, noisy []string
	for i, v := range []float64{100, 101, 99} {
		a = append(a, write(fmt.Sprintf("a%d.json", i), v))
		same = append(same, write(fmt.Sprintf("same%d.json", i), v+0.5))
		slow = append(slow, write(fmt.Sprintf("slow%d.json", i), v*0.7))
	}
	for i, v := range []float64{40, 70, 100} { // median 30% down, but ranges overlap
		noisy = append(noisy, write(fmt.Sprintf("noisy%d.json", i), v))
	}
	for _, tc := range []struct {
		b       []string
		verdict string
		status  int
	}{{same, "within", 0}, {slow, "worse", 1}, {noisy, "unresolved", 0}} {
		var out bytes.Buffer
		args := append(append(append([]string{}, a...), "vs"), tc.b...)
		if status := compareMain(args, &out); status != tc.status {
			t.Errorf("compare exit status %d, want %d\n%s", status, tc.status, out.String())
		}
		var row string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, "answers_per_s") {
				row = l
			}
		}
		if !strings.HasSuffix(row, tc.verdict) {
			t.Errorf("answers_per_s row %q, want verdict %s", row, tc.verdict)
		}
	}
}
