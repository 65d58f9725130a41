package profile_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/profile"
)

// BenchmarkCollect is the profiler's layer benchmark: one op profiles
// every quick-suite original, compiled once at the profiling point,
// untimed. It reports the profiled instructions per second through the
// "instrs/s" metric; the benchmark ledger reports the same layer as
// profile.mips.
func BenchmarkCollect(b *testing.B) {
	suite := experiments.Quick()
	progs := make([]*isa.Program, len(suite))
	for i, w := range suite {
		progs[i] = compileAtProfilingPoint(b, w)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		for j, w := range suite {
			p, err := profile.Collect(progs[j], w.Setup, w.Name)
			if err != nil {
				b.Fatal(err)
			}
			instrs += p.TotalDyn
		}
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}
