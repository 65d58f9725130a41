package pipeline_test

import (
	"context"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hlc"
	"repro/internal/hlc/hlctest"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/workloads"
)

// benchUses is the request pattern of one full experiment run over a
// suite: Fig. 5 touches every level once, and Figs. 6(a), 7, and 9 touch
// -O0 again while Figs. 6(b), 8, and 9 touch -O2 again. Each use needs the
// original and the clone compiled for that point.
var benchUses = []struct {
	level compiler.OptLevel
	count int
}{
	{compiler.O0, 4},
	{compiler.O1, 1},
	{compiler.O2, 4},
	{compiler.O3, 1},
}

// BenchmarkPipelineSequentialSeed reproduces the seed repository's code
// shape: a strictly sequential loop with a per-workload clone cache
// (cloneOf) but no artifact cache, so the original and the clone are
// recompiled for every experiment that touches a (workload, level) point.
func BenchmarkPipelineSequentialSeed(b *testing.B) {
	suite := experiments.Quick()
	for i := 0; i < b.N; i++ {
		type cloneInfo struct {
			prof   *profile.Profile
			cloneC *hlc.CheckedProgram
		}
		cloneCache := map[string]*cloneInfo{}
		cloneOf := func(w *workloads.Workload) *cloneInfo {
			if ci, ok := cloneCache[w.Name]; ok {
				return ci
			}
			cp := hlctest.MustCheck(w.Source)
			prog, err := compiler.Compile(cp, isa.AMD64, compiler.O0)
			if err != nil {
				b.Fatal(err)
			}
			prof, err := profile.Collect(prog, w.Setup, w.Name)
			if err != nil {
				b.Fatal(err)
			}
			ccp, _, err := core.Synthesize(prof, core.Config{Seed: experiments.CloneSeed})
			if err != nil {
				b.Fatal(err)
			}
			ci := &cloneInfo{prof: prof, cloneC: ccp}
			cloneCache[w.Name] = ci
			return ci
		}
		for _, use := range benchUses {
			for n := 0; n < use.count; n++ {
				for _, w := range suite {
					ci := cloneOf(w)
					cp := hlctest.MustCheck(w.Source)
					if _, err := compiler.Compile(cp, isa.AMD64, use.level); err != nil {
						b.Fatal(err)
					}
					if _, err := compiler.Compile(ci.cloneC, isa.AMD64, use.level); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}

// BenchmarkPipelineParallelCached runs the same request pattern through the
// pipeline with four workers and a shared artifact cache: repeated uses of
// a point are hits, and independent points fan out.
func BenchmarkPipelineParallelCached(b *testing.B) {
	suite := experiments.Quick()
	ctx := context.Background()
	type job struct {
		w     *workloads.Workload
		level compiler.OptLevel
	}
	var jobs []job
	for _, use := range benchUses {
		for n := 0; n < use.count; n++ {
			for _, w := range suite {
				jobs = append(jobs, job{w, use.level})
			}
		}
	}
	for i := 0; i < b.N; i++ {
		p := pipeline.New(pipeline.Options{Workers: 4, Seed: experiments.CloneSeed})
		if _, err := pipeline.Map(ctx, p, jobs, func(ctx context.Context, j job) (pipeline.Pair, error) {
			return p.PairAt(ctx, j.w, isa.AMD64, j.level)
		}); err != nil {
			b.Fatal(err)
		}
	}
}
