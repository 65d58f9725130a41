package main

import (
	"math"
	"sort"
)

// metricDef names one metric the ledger emits. The two tables below must
// match BENCHMARK.json exactly; TestMetricTablesMatchBenchmarkJSON guards
// the pairing.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run reports on every workload. Each
// workload defines its own operation and item (see workloads.go), so the
// same name compares one workload against itself across commits.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"items_per_s", "1/s", "higher"},
	{"max_rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports on every workload. Counts
// are per traced pass, so they repeat exactly; *_pct metrics are the share
// of the traced passes' worker time (wall time × workers) spent in one
// layer, 0 where the workload's measured part never enters it.
var perLayer = []metricDef{
	{"pipeline.computed.parse", "count", "lower"},
	{"pipeline.computed.check", "count", "lower"},
	{"pipeline.computed.compile", "count", "lower"},
	{"pipeline.computed.profile", "count", "lower"},
	{"pipeline.computed.synthesize", "count", "lower"},
	{"pipeline.computed.validate", "count", "lower"},
	{"pipeline.computed.simulate", "count", "lower"},
	{"pipeline.cache_hits", "count", "higher"},
	{"pipeline.disk_hits", "count", "higher"},
	{"pipeline.disk_errors", "count", "lower"},
	{"core.truncated", "count", "lower"},
	{"core.synthesize_pct", "%", "lower"},
	{"profile.collect_pct", "%", "lower"},
	{"profile.mips", "MIPS", "higher"},
	{"compiler.compile_pct", "%", "lower"},
	{"pipeline.validate_pct", "%", "lower"},
	{"pipeline.simulate_pct", "%", "lower"},
	{"experiments.fig10_pct", "%", "lower"},
	{"experiments.fig11_pct", "%", "lower"},
	{"explore.sim_mips", "MIPS", "higher"},
	{"explore.sim_instrs", "count", "lower"},
	{"store.put_count", "count", "lower"},
	{"store.put_bytes", "count", "lower"},
	{"store.put_pct", "%", "lower"},
	{"store.wip_pct", "%", "lower"},
	{"store.get_count", "count", "lower"},
	{"store.get_bytes", "count", "lower"},
	{"store.get_pct", "%", "lower"},
	{"store.fs_get_pct", "%", "lower"},
	{"store.remote_get_count", "count", "lower"},
	{"store.remote_errors", "count", "lower"},
	{"vm.fast_mips", "MIPS", "higher"},
	{"vm.hooked_mips", "MIPS", "higher"},
	{"cpu.ooo_mips", "MIPS", "higher"},
	{"cpu.ooo_cycles", "count", "lower"},
	{"cpu.epic_mips", "MIPS", "higher"},
	{"cpu.epic_cycles", "count", "lower"},
	{"cache.maccesses_per_s", "M/s", "higher"},
	{"trace.overhead", "ratio", "lower"},
}

// metricValue is one reported number with its unit, the shape the result
// line's "metrics" object holds.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs and whether it may be
// reported: a percentile counts only when at least ten samples lie beyond
// it, so a p90 needs 100 samples.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], len(s)-1-i >= 10
}

// quartiles returns the first and third quartiles of xs by the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4). It needs at
// least two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, false
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), true
}

// spread is the interquartile distance of xs as a share of its median, the
// run-to-run noise band a comparison must exceed.
func spread(xs []float64) float64 {
	q1, q3, ok := quartiles(xs)
	m := median(xs)
	if !ok || m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
