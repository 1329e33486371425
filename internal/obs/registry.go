package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance inside a family.
type series struct {
	labels  []Label
	counter *Counter
	gauge   func() int64
	hist    *Histogram
}

// family groups all series sharing a metric name, kind, and help text.
type family struct {
	name string
	help string
	kind metricKind

	mu     sync.Mutex
	series map[string]*series
}

// Registry holds metric families and renders them as Prometheus text
// exposition format. Lookups are get-or-create and idempotent: asking twice
// for the same name + labels returns the same metric, so packages can keep
// package-level metric variables while tests construct servers freely.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry that GET /metrics renders.
var Default = NewRegistry()

func (r *Registry) family(name, help string, kind metricKind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// labelKey canonicalizes a label set (sorted by key) into a map key.
func labelKey(labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return "", nil
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	for _, l := range sorted {
		b.WriteString(l.Key)
		b.WriteByte(0)
		b.WriteString(l.Value)
		b.WriteByte(0)
	}
	return b.String(), sorted
}

func (f *family) get(labels []Label) *series {
	key, sorted := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: sorted}
		switch f.kind {
		case counterKind:
			s.counter = &Counter{}
		case histogramKind:
			s.hist = &Histogram{}
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the counter for name + labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.family(name, help, counterKind).get(labels).counter
}

// CounterFunc registers a counter whose value is read from fn at render
// time — for monotonic counts another package already keeps.
// Re-registering the same name + labels replaces the callback.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.family(name, help, counterKind).get(labels).counter.fn = fn
}

// GaugeFunc registers a gauge — a value that can go up and down — read from
// fn at render time, which keeps hot paths free of bookkeeping for values
// that already exist elsewhere (e.g. an in-flight count the admission
// envelope maintains). Re-registering the same name + labels replaces the
// callback.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	s := r.family(name, help, gaugeKind).get(labels)
	s.gauge = fn
}

// Histogram returns the histogram for name + labels, creating it on first use.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.family(name, help, histogramKind).get(labels).hist
}

// SeriesSnapshot pairs one histogram series' labels with its snapshot.
type SeriesSnapshot struct {
	Labels   []Label
	Snapshot HistogramSnapshot
}

// HistogramSeries returns a snapshot of every series in the named histogram
// family, sorted by label set. It returns nil if the family does not exist
// or is not a histogram.
func (r *Registry) HistogramSeries(name string) []SeriesSnapshot {
	r.mu.Lock()
	f := r.families[name]
	r.mu.Unlock()
	if f == nil || f.kind != histogramKind {
		return nil
	}
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]SeriesSnapshot, 0, len(keys))
	for _, k := range keys {
		s := f.series[k]
		out = append(out, SeriesSnapshot{Labels: s.labels, Snapshot: s.hist.Snapshot()})
	}
	f.mu.Unlock()
	return out
}

// escapeLabelValue applies the exposition-format label escapes:
// backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp applies the HELP-line escapes: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// renderLabels formats a sorted label set, optionally appending extra
// (used for histogram le labels). Returns "" for an empty set.
func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label{}, labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// WritePrometheus renders every family in the registry as Prometheus text
// exposition format (version 0.0.4): HELP and TYPE lines per family,
// cumulative +Inf-terminated buckets with bounds in seconds for histograms,
// families and series in deterministic sorted order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make([]*family, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make([]*series, 0, len(keys))
		for _, k := range keys {
			ordered = append(ordered, f.series[k])
		}
		f.mu.Unlock()

		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range ordered {
			switch f.kind {
			case counterKind:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, renderLabels(s.labels), s.counter.Value())
			case gaugeKind:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, renderLabels(s.labels), s.gauge())
			case histogramKind:
				snap := s.hist.Snapshot()
				var cum int64
				for i := 0; i < NumBuckets; i++ {
					cum += snap.Buckets[i]
					le := "+Inf"
					if i < numFinite {
						le = formatSeconds(int64(BucketBound(i)))
					}
					fmt.Fprintf(&b, "%s_bucket%s %d\n",
						f.name, renderLabels(s.labels, Label{"le", le}), cum)
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, renderLabels(s.labels), formatSeconds(snap.SumNs))
				// _count is the cumulative bucket sum, not snap.Count: the
				// buckets and the count are read at slightly different
				// instants under concurrent recording, and the exposition
				// format requires the +Inf bucket to equal the count.
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, renderLabels(s.labels), cum)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
