// Package obs is pitract's dependency-free observability core: lock-free
// log-bucketed latency histograms, named counters, callback gauges, and a
// registry that renders the Prometheus text exposition format.
//
// Every metric is a fixed set of atomics — recording is a handful of atomic
// adds with no allocation, no locks, and no time-source reads beyond the two
// the caller makes, so instrumentation can stay on the serve hot path. The
// whole package can be switched off at runtime with SetEnabled(false), which
// turns every Observe/Add into a single atomic load; the serving benchmark
// uses that switch for its instrumented-vs-uninstrumented obs.overhead_pct.
//
// Typical hot-path usage pairs Start with Histogram.Since so a disabled
// process pays neither the clock reads nor the atomic writes:
//
//	start := obs.Start() // zero Time when disabled
//	... stage work ...
//	hist.Since(start) // no-op when start is zero
package obs

import (
	"sync/atomic"
	"time"
)

// disabled is the package-wide kill switch. The zero value means enabled, so
// an importing process is instrumented by default with no init required.
var disabled atomic.Bool

// SetEnabled turns metric recording on or off process-wide. Disabling does
// not clear previously recorded values; it only stops new observations.
func SetEnabled(on bool) { disabled.Store(!on) }

// Start returns the current time when metric recording is enabled and the
// zero Time otherwise. Pair it with Histogram.Since: when recording is off
// the caller skips both clock reads and the histogram write entirely.
func Start() time.Time {
	if disabled.Load() {
		return time.Time{}
	}
	return time.Now()
}

// Label is one metric dimension, e.g. {Key: "stage", Value: "preprocess"}.
type Label struct {
	Key   string
	Value string
}

// Counter is a monotonically increasing named value. A counter created
// with Registry.CounterFunc reads its value from a callback at render time
// instead.
type Counter struct {
	v  atomic.Int64
	fn func() int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n to the counter. It is a no-op when recording is disabled, the
// receiver is nil or the counter is a callback, so call sites never need
// their own guard.
func (c *Counter) Add(n int64) {
	if c == nil || c.fn != nil || disabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current counter value, consulting the callback if set.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	if c.fn != nil {
		return c.fn()
	}
	return c.v.Load()
}
