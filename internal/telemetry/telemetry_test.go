package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTelemetryGetOrCreate pins the registry's identity contract: the same
// (name, labels) yields the same handle, label order is canonical, and
// different labels fork a new series.
func TestTelemetryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("jobs_total", "jobs", "result", "ok", "node", "n1")
	b := r.Counter("jobs_total", "jobs", "node", "n1", "result", "ok")
	if a != b {
		t.Fatalf("reordered labels returned a different series")
	}
	c := r.Counter("jobs_total", "jobs", "result", "failed", "node", "n1")
	if c == a {
		t.Fatalf("different labels returned the same series")
	}
	g1 := r.Gauge("depth", "queue depth")
	g2 := r.Gauge("depth", "queue depth")
	if g1 != g2 {
		t.Fatalf("gauge get-or-create returned different handles")
	}
	h1 := r.Histogram("lat", "latency", []float64{1, 2})
	h2 := r.Histogram("lat", "latency", []float64{1, 2})
	if h1 != h2 {
		t.Fatalf("histogram get-or-create returned different handles")
	}
}

// TestTelemetryKindMismatchPanics pins that re-registering a name under a
// different kind is a programming error.
func TestTelemetryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "x")
	defer func() {
		if recover() == nil {
			t.Fatalf("kind mismatch did not panic")
		}
	}()
	r.Gauge("x", "x")
}

// TestTelemetryExpositionGolden pins the exact Prometheus text exposition
// bytes for a representative registry.
func TestTelemetryExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("synth_jobs_total", "Jobs by result.", "result", "ok").Add(3)
	r.Counter("synth_jobs_total", "Jobs by result.", "result", "failed").Inc()
	r.Gauge("synth_queue_depth", "Pending jobs.").Set(7)
	h := r.Histogram("synth_stage_seconds", "Stage wall time.", []float64{0.5, 1}, "stage", "parse")
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(2)
	r.CounterFunc("synth_instrs_total", "Executed instructions.", func() uint64 { return 42 })

	const want = `# HELP synth_instrs_total Executed instructions.
# TYPE synth_instrs_total counter
synth_instrs_total 42
# HELP synth_jobs_total Jobs by result.
# TYPE synth_jobs_total counter
synth_jobs_total{result="ok"} 3
synth_jobs_total{result="failed"} 1
# HELP synth_queue_depth Pending jobs.
# TYPE synth_queue_depth gauge
synth_queue_depth 7
# HELP synth_stage_seconds Stage wall time.
# TYPE synth_stage_seconds histogram
synth_stage_seconds_bucket{stage="parse",le="0.5"} 1
synth_stage_seconds_bucket{stage="parse",le="1"} 2
synth_stage_seconds_bucket{stage="parse",le="+Inf"} 3
synth_stage_seconds_sum{stage="parse"} 3
synth_stage_seconds_count{stage="parse"} 3
`
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestTelemetryCounterFuncSums pins that a CounterFunc registered again
// under one name and label set adds to that series: the scrape reports the
// sum of every registered func, read at scrape time, while other label
// sets stay separate.
func TestTelemetryCounterFuncSums(t *testing.T) {
	r := NewRegistry()
	a, b := uint64(3), uint64(4)
	r.CounterFunc("synth_hits_total", "Hits.", func() uint64 { return a }, "stage", "parse")
	r.CounterFunc("synth_hits_total", "Hits.", func() uint64 { return b }, "stage", "parse")
	r.CounterFunc("synth_hits_total", "Hits.", func() uint64 { return 5 }, "stage", "check")
	scrape := func() string {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		return sb.String()
	}
	const want = `# HELP synth_hits_total Hits.
# TYPE synth_hits_total counter
synth_hits_total{stage="parse"} 7
synth_hits_total{stage="check"} 5
`
	if got := scrape(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	b = 10
	if got := scrape(); !strings.Contains(got, `synth_hits_total{stage="parse"} 13`+"\n") {
		t.Fatalf("sum not read at scrape time:\n%s", got)
	}
}

// TestTelemetryRegistryRace hammers counters, gauges, histograms, and
// get-or-create from many goroutines while a scraper renders the registry;
// run under -race this pins the concurrency contract.
func TestTelemetryRegistryRace(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("race_total", "race", "w", "a")
			g := r.Gauge("race_depth", "race")
			h := r.Histogram("race_seconds", "race", DefaultLatencyBuckets)
			// Duplicate CounterFunc registrations race the scraper too.
			r.CounterFunc("race_funcs_total", "race", func() uint64 { return 1 })
			for j := 0; j < 2000; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(j) / 1000)
				// Re-resolve handles to race get-or-create too.
				r.Counter("race_total", "race", "w", "a").Inc()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr := NewTracer(64)
		for i := 0; i < 500; i++ {
			_, s := tr.Start(context.Background(), "race")
			s.SetAttr("i", "x")
			s.End()
		}
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Let the scraper overlap the writers, then stop it.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done
	if got := r.Counter("race_total", "race", "w", "a").Value(); got != 4*2*2000 {
		t.Fatalf("race_total = %d, want %d", got, 4*2*2000)
	}
	if got := r.Histogram("race_seconds", "race", DefaultLatencyBuckets).Count(); got != 4*2000 {
		t.Fatalf("race_seconds count = %d, want %d", got, 4*2000)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	if !strings.Contains(b.String(), "race_funcs_total 4\n") {
		t.Fatalf("race_funcs_total is not the sum of 4 registrations:\n%s", b.String())
	}
}

// TestTelemetryNilSafety pins that every handle type, the registry, the
// tracer, and the sink are usable as nil values — and that the disabled
// hot path does not allocate.
func TestTelemetryNilSafety(t *testing.T) {
	var r *Registry
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	var sk *Sink
	if got := r.Counter("x", "x"); got != nil {
		t.Fatalf("nil registry returned non-nil counter")
	}
	r.CounterFunc("x", "x", func() uint64 { return 0 })
	r.GaugeFunc("x", "x", func() float64 { return 0 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry scrape: %v", err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(2)
		g.Set(1)
		g.Add(1)
		h.Observe(1)
		ctx2, s := tr.Start(ctx, "x")
		s.SetAttr("k", "v")
		s.End()
		if ctx2 != ctx {
			t.Errorf("nil tracer changed the context")
		}
		sk.Emit("x")
		sk.Close()
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocated %.1f times per op, want 0", allocs)
	}
}

// TestTelemetryHistogramBuckets pins bucket routing, including the +Inf
// overflow bucket and ObserveSince.
func TestTelemetryHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 10})
	h.Observe(0.5)
	h.Observe(1) // boundary: le="1" is inclusive
	h.Observe(5)
	h.Observe(100)
	if got := h.counts[0].Load(); got != 2 {
		t.Fatalf("bucket le=1 = %d, want 2", got)
	}
	if got := h.counts[1].Load(); got != 1 {
		t.Fatalf("bucket le=10 = %d, want 1", got)
	}
	if got := h.counts[2].Load(); got != 1 {
		t.Fatalf("bucket +Inf = %d, want 1", got)
	}
	if h.Count() != 4 || h.Sum() != 106.5 {
		t.Fatalf("count=%d sum=%v, want 4 and 106.5", h.Count(), h.Sum())
	}
	h.ObserveSince(time.Now().Add(-2 * time.Second))
	if got := h.counts[1].Load(); got != 2 {
		t.Fatalf("ObserveSince(~2s) landed outside le=10: bucket=%d", got)
	}
}

// TestTelemetryRate pins the per-second delta sampler behind rate gauges.
func TestTelemetryRate(t *testing.T) {
	var v uint64
	rate := Rate(func() uint64 { return v })
	if got := rate(); got != 0 {
		t.Fatalf("first sample = %v, want 0", got)
	}
	v = 1_000_000
	time.Sleep(20 * time.Millisecond)
	got := rate()
	if got <= 0 {
		t.Fatalf("rate after counter advance = %v, want > 0", got)
	}
}
