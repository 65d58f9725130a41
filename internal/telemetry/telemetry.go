// Package telemetry is the repo's dependency-free observability layer: a
// metrics registry (atomic counters, gauges, fixed-bucket histograms with
// Prometheus text exposition), a lightweight span tracer exporting Chrome
// trace_event JSON, and a single-writer event sink for structured logs.
//
// Everything is built for instrumentation of hot paths: metric handles are
// looked up once and then updated with a single atomic operation, every
// type is safe for concurrent use, and every method is a no-op on a nil
// receiver — disabled telemetry is a nil Registry or Tracer, and the
// instrumented code runs the same lines either way, allocation-free.
//
// See docs/observability.md for the metric name catalog and the trace and
// scrape how-tos.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// metricKind discriminates a family's exposition type.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

// expoType renders the kind as a Prometheus TYPE keyword.
func (k metricKind) expoType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one metric name: its metadata plus every labeled series
// registered under it.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64 // histogram upper bounds (without +Inf)

	mu     sync.Mutex
	series map[string]any // label string -> *Counter/*Gauge/*Histogram/*counterFuncs/func
	order  []string       // label strings in first-registration order
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Lookups are get-or-create and idempotent: asking twice
// for the same (name, labels) returns the same handle, so instrumented
// packages can resolve their handles independently and still share series.
// All methods are safe for concurrent use, and safe on a nil *Registry —
// they return nil handles whose updates are no-ops.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelString renders alternating key/value label pairs canonically (sorted
// by key), so two lookups with reordered labels hit the same series.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q (want key/value pairs)", labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// sameBuckets reports whether two bucket lists agree.
func sameBuckets(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// getFamily returns the family for name, creating it on first use. A name
// re-registered under a different kind or bucket layout is a programming
// error and panics — silently forking a metric would corrupt dashboards.
func (r *Registry) getFamily(name, help string, kind metricKind, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, buckets: buckets,
			series: make(map[string]any)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s re-registered as %s (was %s)",
			name, kind.expoType(), f.kind.expoType()))
	}
	if kind == kindHistogram && !sameBuckets(f.buckets, buckets) {
		panic(fmt.Sprintf("telemetry: histogram %s re-registered with different buckets", name))
	}
	return f
}

// getSeries returns the series for ls in f, creating it with mk on first
// use.
func (f *family) getSeries(ls string, mk func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[ls]; ok {
		return s
	}
	s := mk()
	f.series[ls] = s
	f.order = append(f.order, ls)
	return s
}

// Counter returns the counter registered under name and the alternating
// key/value label pairs, creating it on first use. Nil registries return a
// nil (no-op) counter.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, kindCounter, nil)
	return f.getSeries(labelString(labels), func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge registered under name and labels, creating it on
// first use. Nil registries return a nil (no-op) gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, kindGauge, nil)
	return f.getSeries(labelString(labels), func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the fixed-bucket histogram registered under name and
// labels, creating it on first use. buckets are the strictly increasing
// upper bounds; a final +Inf bucket is implicit. Nil registries return a
// nil (no-op) histogram.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s buckets not strictly increasing", name))
		}
	}
	f := r.getFamily(name, help, kindHistogram, buckets)
	return f.getSeries(labelString(labels), func() any { return newHistogram(buckets) }).(*Histogram)
}

// counterFuncs is one CounterFunc series; it scrapes as the sum of its funcs.
type counterFuncs []func() uint64

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for monotone counts owned elsewhere (a pipeline's CacheStats).
// Registering again under the same name and labels adds fn to the series,
// which scrapes as the sum, so per-instance counts total across instances
// and a process-wide count is registered once. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...string) {
	if r == nil {
		return
	}
	f := r.getFamily(name, help, kindCounterFunc, nil)
	fs := f.getSeries(labelString(labels), func() any { return &counterFuncs{} }).(*counterFuncs)
	f.mu.Lock()
	*fs = append(*fs, fn)
	f.mu.Unlock()
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time —
// for point-in-time observations like queue depth or a live rate. No-op on
// a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	f := r.getFamily(name, help, kindGaugeFunc, nil)
	f.getSeries(labelString(labels), func() any { return fn })
}

// formatFloat renders a sample value the way the exposition format expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// seriesName renders "name{labels}" (or bare "name" without labels), with
// extra pre-rendered label text appended inside the braces.
func seriesName(name, ls, extra string) string {
	all := ls
	if extra != "" {
		if all != "" {
			all += ","
		}
		all += extra
	}
	if all == "" {
		return name
	}
	return name + "{" + all + "}"
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4), families sorted by name and series in
// registration order, so output is stable for golden tests and diffs.
// Nil registries write nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind.expoType())
		for _, ls := range f.order {
			switch s := f.series[ls].(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.name, ls, ""), s.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s %s\n", seriesName(f.name, ls, ""), formatFloat(s.Value()))
			case *Histogram:
				s.write(&b, f.name, ls)
			case *counterFuncs:
				var v uint64
				for _, fn := range *s {
					v += fn()
				}
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.name, ls, ""), v)
			case func() float64:
				fmt.Fprintf(&b, "%s %s\n", seriesName(f.name, ls, ""), formatFloat(s()))
			}
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}
