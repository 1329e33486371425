package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketIndex(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{1, 0},
		{128, 0},                 // 2^7: top of the first bucket
		{129, 1},                 // first value past 2^7
		{256, 1},                 // 2^8
		{1 << 20, 13},            // 1MiB ns ≈ 1ms
		{1 << 33, numFinite - 1}, // top finite bound
		{1<<33 + 1, NumBuckets - 1},
		{1 << 62, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(100 * time.Nanosecond) // bucket 0
	h.Observe(200 * time.Nanosecond) // bucket 1
	h.Observe(time.Millisecond)      // bucket 13
	h.Observe(-time.Second)          // clamped to 0 → bucket 0

	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	wantSum := int64(100 + 200 + 1e6)
	if s.SumNs != wantSum {
		t.Fatalf("sum = %d, want %d", s.SumNs, wantSum)
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[13] != 1 {
		t.Fatalf("bucket layout wrong: %v", s.Buckets)
	}
	if got := s.Mean(); got != time.Duration(wantSum/4) {
		t.Fatalf("mean = %v", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var empty HistogramSnapshot
	if empty.Quantile(0.99) != 0 {
		t.Fatal("empty histogram should report 0")
	}

	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond) // all in one bucket: (2^19, 2^20] ns
	}
	s := h.Snapshot()
	lo, hi := time.Duration(1<<19), time.Duration(1<<20)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		v := s.Quantile(q)
		if v <= lo || v > hi {
			t.Fatalf("q%.3f = %v outside bucket (%v, %v]", q, v, lo, hi)
		}
	}
	if !(s.Quantile(0.5) <= s.Quantile(0.9) && s.Quantile(0.9) <= s.Quantile(0.99) &&
		s.Quantile(0.99) <= s.Quantile(0.999)) {
		t.Fatal("quantiles not monotone")
	}

	var over Histogram
	over.Observe(time.Minute) // overflow bucket
	if got := over.Snapshot().Quantile(0.5); got != maxFiniteBound {
		t.Fatalf("overflow quantile = %v, want %v", got, maxFiniteBound)
	}
}

func TestHistogramSnapshotMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Microsecond)
	a.Observe(time.Millisecond)
	b.Observe(time.Millisecond)

	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 3 {
		t.Fatalf("merged count = %d, want 3", sa.Count)
	}
	if sa.SumNs != int64(1e3+2e6) {
		t.Fatalf("merged sum = %d", sa.SumNs)
	}
	if sa.Buckets[13] != 2 {
		t.Fatalf("merged buckets: %v", sa.Buckets)
	}
}

func TestSetEnabledKillSwitch(t *testing.T) {
	defer SetEnabled(true)

	SetEnabled(false)
	if Enabled() {
		t.Fatal("Enabled() should be false")
	}
	if !Start().IsZero() {
		t.Fatal("Start() should return zero time when disabled")
	}
	var h Histogram
	h.Observe(time.Second)
	h.Since(time.Now().Add(-time.Second))
	var c Counter
	c.Inc()
	var g Gauge
	g.Set(7)
	g.Add(3)
	if h.Snapshot().Count != 0 || c.Value() != 0 || g.Value() != 0 {
		t.Fatal("disabled metrics must not record")
	}

	SetEnabled(true)
	h.Since(Start())
	c.Inc()
	if h.Snapshot().Count != 1 || c.Value() != 1 {
		t.Fatal("re-enabled metrics must record again")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("x_seconds", "help", Label{"stage", "a"})
	h2 := r.Histogram("x_seconds", "ignored on re-lookup", Label{"stage", "a"})
	if h1 != h2 {
		t.Fatal("same name+labels must return the same histogram")
	}
	if h3 := r.Histogram("x_seconds", "help", Label{"stage", "b"}); h3 == h1 {
		t.Fatal("different labels must return a different histogram")
	}
	// Label order must not matter.
	c1 := r.Counter("y_total", "h", Label{"a", "1"}, Label{"b", "2"})
	c2 := r.Counter("y_total", "h", Label{"b", "2"}, Label{"a", "1"})
	if c1 != c2 {
		t.Fatal("label order must not create a new series")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Counter("x_seconds", "help")
}

func TestStageHelpers(t *testing.T) {
	if Stage(StagePreprocess) != Stage(StagePreprocess) {
		t.Fatal("Stage must be idempotent")
	}
	if AnswerHistogram("s") != AnswerHistogram("s") {
		t.Fatal("AnswerHistogram must be idempotent")
	}
	if Stage(StagePreprocess) == Stage(StageWarm) {
		t.Fatal("distinct stages must be distinct series")
	}
}

func TestWritePrometheusConformance(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_requests_total", "Total requests.").Add(5)
	r.Counter("t_requests_total", "Total requests.", Label{"endpoint", "/v1/query"}).Add(2)
	r.Gauge("t_in_flight", "In-flight requests.").Set(3)
	r.GaugeFunc("t_goroutines", "Callback-valued gauge.", func() int64 { return 42 })
	r.CounterFunc("t_evictions_total", "Callback-valued counter.", func() int64 { return 7 })
	h := r.Histogram("t_latency_seconds", "Latency with tricky labels.",
		Label{"path", `a\b"c` + "\n" + "d"})
	h.Observe(time.Microsecond)
	h.Observe(time.Millisecond)
	h.Observe(time.Minute) // overflow
	r.Histogram("t_latency_seconds", "Latency with tricky labels.", Label{"path", "plain"}).
		Observe(time.Millisecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := CheckExposition([]byte(out)); err != nil {
		t.Fatalf("exposition not conformant: %v\n%s", err, out)
	}

	for _, want := range []string{
		"# HELP t_requests_total Total requests.\n",
		"# TYPE t_requests_total counter\n",
		"t_requests_total 5\n",
		`t_requests_total{endpoint="/v1/query"} 2` + "\n",
		"# TYPE t_latency_seconds histogram\n",
		`path="a\\b\"c\nd"`,
		`le="+Inf"`,
		"t_goroutines 42\n",
		"# TYPE t_evictions_total counter\nt_evictions_total 7\n",
		"t_in_flight 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE t_latency_seconds histogram") != 1 {
		t.Error("TYPE line must appear once per family")
	}
}

func TestCheckExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no TYPE": "# HELP x h\nx 1\n",
		"no HELP": "# TYPE x counter\nx 1\n",
		"bad escape": "# HELP x h\n# TYPE x counter\n" +
			`x{a="\q"} 1` + "\n",
		"bad value": "# HELP x h\n# TYPE x counter\nx one\n",
		"non-cumulative buckets": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"missing +Inf": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 5\nh_sum 1\nh_count 5\n",
		"count mismatch": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 6\n",
		"unterminated labels": "# HELP x h\n# TYPE x counter\n" +
			`x{a="1" 1` + "\n",
	}
	for name, payload := range cases {
		if err := CheckExposition([]byte(payload)); err == nil {
			t.Errorf("%s: CheckExposition accepted malformed payload", name)
		}
	}
	good := "# HELP h h\n# TYPE h histogram\n" +
		"h_bucket{le=\"0.1\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_sum 1.5\nh_count 5\n"
	if err := CheckExposition([]byte(good)); err != nil {
		t.Errorf("valid payload rejected: %v", err)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}
