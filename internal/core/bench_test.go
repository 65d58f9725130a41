package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/workloads"
)

// quickProfiles profiles every quick-suite workload.
func quickProfiles(tb testing.TB) []*profile.Profile {
	return profiles(tb, experiments.Quick())
}

// profiles profiles the given workloads.
func profiles(tb testing.TB, ws []*workloads.Workload) []*profile.Profile {
	tb.Helper()
	ctx := context.Background()
	p := pipeline.New(pipeline.Options{Seed: experiments.CloneSeed})
	var profs []*profile.Profile
	for _, w := range ws {
		prof, err := p.Profile(ctx, w)
		if err != nil {
			tb.Fatal(err)
		}
		profs = append(profs, prof)
	}
	return profs
}

// BenchmarkSynthesize is the synthesis layer's benchmark: one op
// synthesizes every quick-suite clone at the experiments' seed, the
// calibration loop's compile-and-run measurements included. The
// workloads are profiled once, untimed. Per op it reports the candidates
// run (measurements), those served an earlier equal candidate's
// measurement (reused), and the functions compiled and predecoded
// (funcs_rebuilt).
func BenchmarkSynthesize(b *testing.B) {
	profs := quickProfiles(b)
	var total core.BuildStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prof := range profs {
			_, _, s, err := core.SynthesizeObserved(prof, core.Config{Seed: experiments.CloneSeed}, nil)
			if err != nil {
				b.Fatal(err)
			}
			total.Measurements += s.Measurements
			total.Reused += s.Reused
			total.FuncsRebuilt += s.FuncsRebuilt
		}
	}
	b.ReportMetric(float64(total.Measurements)/float64(b.N), "measurements/op")
	b.ReportMetric(float64(total.Reused)/float64(b.N), "reused/op")
	b.ReportMetric(float64(total.FuncsRebuilt)/float64(b.N), "funcs_rebuilt/op")
}
