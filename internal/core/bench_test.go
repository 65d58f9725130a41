package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/profile"
)

// BenchmarkSynthesize is the synthesis layer's benchmark: one op
// synthesizes every quick-suite clone at the experiments' seed, the
// calibration loop's compile-and-run measurements included. The
// workloads are profiled once, untimed.
func BenchmarkSynthesize(b *testing.B) {
	ctx := context.Background()
	p := pipeline.New(pipeline.Options{Seed: experiments.CloneSeed})
	var profs []*profile.Profile
	for _, w := range experiments.Quick() {
		prof, err := p.Profile(ctx, w)
		if err != nil {
			b.Fatal(err)
		}
		profs = append(profs, prof)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prof := range profs {
			if _, _, err := core.Synthesize(prof, core.Config{Seed: experiments.CloneSeed}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
