package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareMain implements `bench compare A1.json A2.json … vs B1.json …`:
// two sets of result files, taken alternately (A B A B), the base before
// "vs" and the candidate after. For every workload both sides ran and every
// end-to-end metric it prints both medians, the relative change, the bound,
// and a verdict. The exit status is 1 when any row is worse, 2 on bad usage.
func compareMain(args []string, out io.Writer) int {
	var sides [2][]string
	side := 0
	for _, a := range args {
		if a == "vs" && side == 0 {
			side = 1
			continue
		}
		sides[side] = append(sides[side], a)
	}
	if len(sides[0]) == 0 || len(sides[1]) == 0 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A1.json A2.json … vs B1.json B2.json …")
		return 2
	}
	var loaded [2]map[string]map[string][]float64 // side → workload → metric → values
	for s := range sides {
		loaded[s] = map[string]map[string][]float64{}
		for _, path := range sides[s] {
			b, err := os.ReadFile(path)
			var res results
			if err == nil {
				err = json.Unmarshal(b, &res)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench compare: %s: %v\n", path, err)
				return 2
			}
			if res.Env.Trace {
				fmt.Fprintf(os.Stderr, "bench compare: %s is a traced run; end-to-end metrics are never taken from one\n", path)
				return 2
			}
			for w, ms := range res.Workloads {
				if loaded[s][w] == nil {
					loaded[s][w] = map[string][]float64{}
				}
				for name, m := range ms {
					loaded[s][w][name] = append(loaded[s][w][name], m.Value)
				}
			}
		}
	}
	var workloads []string
	for w := range loaded[0] {
		if loaded[1][w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)

	worse := false
	fmt.Fprintf(out, "%-22s %-24s %14s %14s %9s %6s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := loaded[0][w][d.name], loaded[1][w][d.name]
			if len(a) == 0 || len(b) == 0 || (d.only != "" && d.only != w) {
				continue
			}
			v := judge(d, a, b)
			worse = worse || v.verdict == "worse"
			fmt.Fprintf(out, "%-22s %-24s %14.6g %14.6g %+8.1f%% %6.2f  %s\n", w, d.name, v.a, v.b, 100*v.change, d.bound, v.verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}

type judgement struct {
	a, b    float64 // medians
	change  float64 // (b − a) / a; b − a when a is 0
	verdict string  // better, within, worse or unresolved
}

// judge compares one metric on one workload. A change beyond the bound is
// only called when the measurement can resolve it: if either side's own
// spread (IQR ÷ median over its files) exceeds the bound and the two sides'
// ranges overlap, the row is unresolved, not changed.
func judge(d metricDef, a, b []float64) judgement {
	j := judgement{a: median(a), b: median(b)}
	j.change = j.b - j.a
	if j.a != 0 {
		j.change /= math.Abs(j.a)
	}
	worsening := j.change
	if d.better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > d.bound:
		j.verdict = "worse"
	case worsening < -d.bound:
		j.verdict = "better"
	default:
		j.verdict = "within"
		return j
	}
	noisy := spread(a) > d.bound || spread(b) > d.bound
	if overlap := minOf(a) <= maxOf(b) && minOf(b) <= maxOf(a); noisy && overlap {
		j.verdict = "unresolved"
	}
	return j
}
