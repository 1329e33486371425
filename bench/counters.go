package main

import (
	"runtime"
	"syscall"

	"pitract/internal/obs"
)

// stageAcc is one obs stage histogram's running total.
type stageAcc struct{ count, sumNs int64 }

// counters is a reading of everything the benchmark accounts by delta: the
// Go runtime's allocation and GC totals, the process's CPU time, and the
// program's own per-stage histograms (the /v1/stats "stages" block, read at
// its source because the histograms are process-wide and outlive a server).
type counters struct {
	mallocs, allocBytes, gcPauseNs uint64
	cpuUs                          int64
	stages                         map[string]stageAcc
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcPauseNs: ms.PauseTotalNs, stages: map[string]stageAcc{}}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpuUs = (ru.Utime.Sec+ru.Stime.Sec)*1e6 + int64(ru.Utime.Usec+ru.Stime.Usec)
	}
	for _, se := range obs.Default.HistogramSeries(obs.StageFamily) {
		for _, l := range se.Labels {
			if l.Key == "stage" {
				c.stages[l.Value] = stageAcc{count: se.Snapshot.Count, sumNs: se.Snapshot.SumNs}
			}
		}
	}
	return c
}

// sub returns c − prev.
func (c counters) sub(prev counters) counters {
	d := counters{
		mallocs:    c.mallocs - prev.mallocs,
		allocBytes: c.allocBytes - prev.allocBytes,
		gcPauseNs:  c.gcPauseNs - prev.gcPauseNs,
		cpuUs:      c.cpuUs - prev.cpuUs,
		stages:     map[string]stageAcc{},
	}
	for k, s := range c.stages {
		p := prev.stages[k]
		d.stages[k] = stageAcc{count: s.count - p.count, sumNs: s.sumNs - p.sumNs}
	}
	return d
}

// add accumulates d into c.
func (c *counters) add(d counters) {
	c.mallocs += d.mallocs
	c.allocBytes += d.allocBytes
	c.gcPauseNs += d.gcPauseNs
	c.cpuUs += d.cpuUs
	if c.stages == nil {
		c.stages = map[string]stageAcc{}
	}
	for k, s := range d.stages {
		a := c.stages[k]
		c.stages[k] = stageAcc{count: a.count + s.count, sumNs: a.sumNs + s.sumNs}
	}
}
