package pipeline

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// traceEvents decodes an exported Chrome trace into its event list.
func traceEvents(t *testing.T, tr *telemetry.Tracer) []struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Tid  uint64            `json:"tid"`
	Args map[string]string `json:"args"`
} {
	t.Helper()
	var b strings.Builder
	if err := tr.Export(&b); err != nil {
		t.Fatalf("Export: %v", err)
	}
	var f struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Tid  uint64            `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return f.TraceEvents
}

// TestPipelineTraceNesting runs a cold synthesis under a tracer and
// asserts the exported Chrome trace contains one span per computed stage,
// nested along the dataflow: synthesize contains profile contains compile
// contains check contains parse, all on one tid.
func TestPipelineTraceNesting(t *testing.T) {
	tr := telemetry.NewTracer(256)
	p := New(Options{Workers: 1, Tracer: tr})
	w := workloads.ByName("crc32/small")
	if w == nil {
		t.Fatal("workload crc32/small not found")
	}
	if _, err := p.Synthesize(context.Background(), w); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	evs := traceEvents(t, tr)
	byName := map[string]int{}
	for _, e := range evs {
		byName[e.Name] = byName[e.Name] + 1
		if e.Ph != "X" {
			t.Fatalf("span %q has phase %q, want X", e.Name, e.Ph)
		}
	}
	for _, name := range []string{"parse", "check", "compile", "profile", "synthesize"} {
		if byName[name] != 1 {
			t.Fatalf("stage %q has %d spans, want 1 (have: %v)", name, byName[name], byName)
		}
	}
	find := func(name string) (ev struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Tid  uint64            `json:"tid"`
		Args map[string]string `json:"args"`
	}) {
		for _, e := range evs {
			if e.Name == name {
				return e
			}
		}
		t.Fatalf("span %q missing", name)
		return
	}
	chain := []string{"synthesize", "profile", "compile", "check", "parse"}
	for i := 1; i < len(chain); i++ {
		outer, inner := find(chain[i-1]), find(chain[i])
		if inner.Tid != outer.Tid {
			t.Fatalf("%s (tid %d) not on %s's tid %d", chain[i], inner.Tid, chain[i-1], outer.Tid)
		}
		if inner.Ts < outer.Ts || inner.Ts+inner.Dur > outer.Ts+outer.Dur {
			t.Fatalf("%s [%v,%v] not contained in %s [%v,%v]",
				chain[i], inner.Ts, inner.Ts+inner.Dur,
				chain[i-1], outer.Ts, outer.Ts+outer.Dur)
		}
	}
	if find("synthesize").Args["workload"] != "crc32/small" {
		t.Fatalf("synthesize span lacks workload attr: %v", find("synthesize").Args)
	}
}

// TestPipelineMetricsMatchCacheStats drains a small run under a registry
// and asserts the scraped counters equal the CacheStats the run reports —
// the contract the CI observability job curls /metrics to verify.
func TestPipelineMetricsMatchCacheStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := New(Options{Workers: 2, Metrics: reg})
	ctx := context.Background()
	w := workloads.ByName("crc32/small")
	if w == nil {
		t.Fatal("workload crc32/small not found")
	}
	if _, err := p.Synthesize(ctx, w); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if err := p.Validate(ctx, w); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Warm re-run: pure hits, so the hit counter must move too.
	if _, err := p.Synthesize(ctx, w); err != nil {
		t.Fatalf("warm Synthesize: %v", err)
	}
	stats := p.CacheStats()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	out := b.String()
	wantLine := func(line string) {
		t.Helper()
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("scrape missing %q:\n%s", line, out)
		}
	}
	wantLine(fmt.Sprintf("synth_pipeline_cache_hits_total %d", stats.Hits))
	wantLine(fmt.Sprintf("synth_pipeline_cache_misses_total %d", stats.Misses))
	wantLine(fmt.Sprintf("synth_pipeline_cache_disk_hits_total %d", stats.DiskHits))
	wantLine(fmt.Sprintf("synth_pipeline_cache_disk_errors_total %d", stats.DiskErrors))
	for s := Stage(0); int(s) < NumStages; s++ {
		wantLine(fmt.Sprintf("synth_pipeline_stage_computed_total{stage=%q} %d",
			s.String(), stats.ComputedFor(s)))
	}
	if stats.Hits == 0 || stats.Misses == 0 {
		t.Fatalf("run exercised no cache traffic: %+v", stats)
	}
}

// scrapeCacheStats reads the synth_pipeline_* cache series of reg back
// into a CacheStats.
func scrapeCacheStats(t *testing.T, reg *telemetry.Registry) CacheStats {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	var s CacheStats
	fields := map[string]*uint64{
		"synth_pipeline_cache_hits_total":        &s.Hits,
		"synth_pipeline_cache_misses_total":      &s.Misses,
		"synth_pipeline_cache_disk_hits_total":   &s.DiskHits,
		"synth_pipeline_cache_disk_errors_total": &s.DiskErrors,
	}
	for st := Stage(0); int(st) < NumStages; st++ {
		fields[fmt.Sprintf("synth_pipeline_stage_computed_total{stage=%q}", st.String())] = &s.Computed[st]
	}
	seen := 0
	for _, line := range strings.Split(b.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if p := fields[name]; ok && p != nil {
			if _, err := fmt.Sscan(val, p); err != nil {
				t.Fatalf("unparsable exposition line %q: %v", line, err)
			}
			seen++
		}
	}
	if seen != len(fields) {
		t.Fatalf("scrape carries %d of %d cache series:\n%s", seen, len(fields), b.String())
	}
	return s
}

// TestPipelineMetricsSumSharedRegistry builds two pipelines on one
// registry over one store, as cluster.Supervisor does per dispatch, and
// lets both compute. Every synth_pipeline_* cache series must scrape as
// the sum of the two pipelines' CacheStats.
func TestPipelineMetricsSumSharedRegistry(t *testing.T) {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	newPipe := func() *Pipeline {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return New(Options{Workers: 2, Metrics: reg, Store: st})
	}
	a, b := newPipe(), newPipe()
	crc, fft := workloads.ByName("crc32/small"), workloads.ByName("fft/small1")
	if crc == nil || fft == nil {
		t.Fatal("workloads crc32/small, fft/small1 not found")
	}
	if _, err := a.Synthesize(ctx, crc); err != nil {
		t.Fatalf("a Synthesize: %v", err)
	}
	if _, err := a.Synthesize(ctx, crc); err != nil {
		t.Fatalf("a warm Synthesize: %v", err)
	}
	// b finds crc32's profile in the store and computes fft's.
	for _, w := range []*workloads.Workload{crc, fft} {
		if _, err := b.Profile(ctx, w); err != nil {
			t.Fatalf("b Profile %s: %v", w.Name, err)
		}
	}
	as, bs := a.CacheStats(), b.CacheStats()
	if as.Misses == 0 || bs.Misses == 0 || as.Hits == 0 || bs.DiskHits == 0 {
		t.Fatalf("pipelines did not both compute, hit, and read the store: a %+v, b %+v", as, bs)
	}
	if got, want := scrapeCacheStats(t, reg), as.Add(bs); got != want {
		t.Fatalf("scrape is not the sum of the pipelines' CacheStats:\n got %+v\nwant %+v", got, want)
	}
}
