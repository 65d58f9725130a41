package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	var xs []float64
	for i := 1; i <= 99; i++ {
		xs = append(xs, float64(i))
	}
	if _, ok := percentile(xs, 0.9); ok {
		t.Error("p90 of 99 samples reported; only 9 lie beyond it")
	}
	xs = append(xs, 100)
	v, ok := percentile(xs, 0.9)
	if !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3, ok := quartiles(xs)
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, %v; want 2.75, 8.25", q1, q3, ok)
	}
	if got, want := spread(xs), 5.5/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m, m * 1.01} }
	cases := []struct {
		name        string
		a, b        []float64
		bound       float64
		lowerBetter bool
		want        string
	}{
		{"within bound", steady(100), steady(105), 0.10, true, "same"},
		{"slower beyond bound", steady(100), steady(115), 0.10, true, "worse"},
		{"faster beyond bound", steady(100), steady(85), 0.10, true, "better"},
		{"throughput drop", steady(100), steady(85), 0.10, false, "worse"},
		{"exact bound, identical", []float64{0.7246, 0.7246}, []float64{0.7246, 0.7246}, 0, false, "same"},
		{"exact bound, any loss", []float64{0.7246, 0.7246}, []float64{0.7245, 0.7245}, 0, false, "worse"},
		{"noisy side", []float64{50, 100, 150, 200}, steady(100), 0.10, true, "unresolved"},
		{"noisy but every run better", []float64{100, 120, 150, 200}, []float64{50, 60, 90, 95}, 0.10, true, "better"},
		{"setup within its wide bound", steady(1.0), steady(1.2), 0.25, true, "same"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.bound, c.lowerBetter); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsDifferingCounts(t *testing.T) {
	def, err := loadBenchDef("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	rec := func(instrs, ms float64) record {
		return record{Workload: "explore_cold", Seed: 1, report: report{
			Result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"op_p50_ms": {ms, "ms"}, "explore.sim_instrs": {instrs, "count"}}},
			Extra: map[string]float64{"sweep_cpi_corr": 0.5},
		}}
	}
	a := []record{rec(1000, 100), rec(1000, 101)}
	if bad := compareRecords(def, a, []record{rec(1000, 100), rec(1000, 102)}, io.Discard); bad != 0 {
		t.Errorf("identical counts and steady times: %d failing rows", bad)
	}
	var out strings.Builder
	if bad := compareRecords(def, a, []record{rec(1001, 100), rec(1001, 100)}, &out); bad == 0 {
		t.Errorf("a changed sim_instrs count passed:\n%s", out.String())
	}
}

// TestMetricTablesMatchBenchmarkJSON is the drift guard: the names, units
// and directions the program emits are exactly those BENCHMARK.json lists.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
	if len(def.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(def.Workloads), len(workloadNames))
	}
	for i, w := range def.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
}

// TestSmokeCloneCold runs one clone_cold pass over the tiny suite and
// checks it passes its gates and reports every end-to-end metric measured
// inside the child (max_rss_mb comes from the parent).
func TestSmokeCloneCold(t *testing.T) {
	cfg := runConfig{workload: "clone_cold", seed: experiments.CloneSeed, workDir: t.TempDir(),
		suite: experiments.Tiny(), maxPasses: 1}
	rep, err := run(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted != len(cfg.suite) {
		t.Errorf("result %+v", rep.Result)
	}
	for _, d := range endToEnd {
		m, ok := rep.Result.Metrics[d.Name]
		if d.Name == "max_rss_mb" {
			if ok {
				t.Error("child reported max_rss_mb itself")
			}
			continue
		}
		if !ok || m.Unit != d.Unit || m.Value <= 0 {
			t.Errorf("metric %s = %+v, %v; want a positive value in %s", d.Name, m, ok, d.Unit)
		}
	}
}

// TestTracedExploreColdReportsEveryLayerMetric runs a traced explore_cold
// over one workload: one untraced and one traced pass, then the
// microbenchmarks.
func TestTracedExploreColdReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("traced run includes the layer microbenchmarks")
	}
	dir := t.TempDir()
	cfg := runConfig{workload: "explore_cold", seed: experiments.CloneSeed, trace: true,
		workDir: dir, traceDir: dir, suite: experiments.Tiny()[:1], maxPasses: 2}
	rep, err := run(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Result.Metrics) != len(perLayer) {
		t.Errorf("traced run reported %d metrics, want %d", len(rep.Result.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if m, ok := rep.Result.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("metric %s = %+v, %v; want unit %s", d.Name, m, ok, d.Unit)
		}
	}
	if got := rep.Result.Metrics["pipeline.computed.simulate"].Value; got != 96 {
		t.Errorf("computed simulate per pass = %v, want 96 (48 points × 2)", got)
	}
	if _, err := os.Stat(dir + "/explore_cold.trace.json"); err != nil {
		t.Error(err)
	}
}
