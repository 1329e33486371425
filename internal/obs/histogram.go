package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram buckets are powers of two spanning 2^7 ns (128ns) through
// 2^33 ns (~8.6s) — the full useful range from a prepared in-memory probe
// to a worst-case registration budget — plus one overflow (+Inf) bucket.
// The layout is fixed at compile time so recording is a single shifted
// bits.Len64 and three atomic adds: lock-free and allocation-free.
const (
	minExp         = 7  // smallest finite bound: 2^7 ns = 128ns
	maxExp         = 33 // largest finite bound: 2^33 ns ≈ 8.59s
	numFinite      = maxExp - minExp + 1
	NumBuckets     = numFinite + 1 // trailing overflow bucket renders as le="+Inf"
	maxFiniteBound = time.Duration(1) << maxExp
)

// BucketBound returns the inclusive upper bound of finite bucket i.
// For the overflow bucket (i == NumBuckets-1) it returns the largest finite
// bound; exposition renders that bucket as le="+Inf".
func BucketBound(i int) time.Duration {
	if i >= numFinite {
		return maxFiniteBound
	}
	return time.Duration(1) << (minExp + i)
}

// bucketIndex maps a non-negative duration in nanoseconds to its bucket.
func bucketIndex(ns int64) int {
	if ns <= 1<<minExp {
		return 0
	}
	idx := bits.Len64(uint64(ns-1)) - minExp
	if idx >= NumBuckets {
		idx = NumBuckets - 1
	}
	return idx
}

// Histogram is a lock-free latency histogram with log-spaced buckets.
// All methods are safe for concurrent use.
type Histogram struct {
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	sumNs   atomic.Int64
}

// Observe records one duration. It is a no-op when recording is disabled or
// the receiver is nil.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil || disabled.Load() {
		return
	}
	h.record(d)
}

// Start is obs.Start for h: the zero Time when h is nil, so a stage that may
// not be timed pays no clock read for it.
func (h *Histogram) Start() time.Time {
	if h == nil {
		return time.Time{}
	}
	return Start()
}

// Since records the elapsed time from start, skipping the clock read and the
// write entirely when start is the zero Time (the disabled-mode value
// returned by Start).
func (h *Histogram) Since(start time.Time) {
	if h == nil || start.IsZero() || disabled.Load() {
		return
	}
	h.record(time.Since(start))
}

func (h *Histogram) record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
}

// Snapshot returns a point-in-time copy of the histogram. Buckets are read
// individually without a global lock, so a snapshot taken during concurrent
// recording may be mid-update by a handful of observations; totals remain
// internally consistent enough for percentile estimation and exposition
// (count is read last so it never undercounts the buckets).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.SumNs = h.sumNs.Load()
	s.Count = h.count.Load()
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram's state.
type HistogramSnapshot struct {
	Buckets [NumBuckets]int64
	Count   int64
	SumNs   int64
}

// Mean returns the arithmetic mean of all recorded durations.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNs / s.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by walking the cumulative
// bucket counts and interpolating linearly inside the target bucket. Values
// that landed in the overflow bucket report the largest finite bound.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if rank <= cum+float64(n) {
			if i >= numFinite {
				return maxFiniteBound
			}
			hi := float64(int64(1) << (minExp + i))
			lo := 0.0
			if i > 0 {
				lo = float64(int64(1) << (minExp + i - 1))
			}
			frac := (rank - cum) / float64(n)
			return time.Duration(lo + frac*(hi-lo))
		}
		cum += float64(n)
	}
	return maxFiniteBound
}
