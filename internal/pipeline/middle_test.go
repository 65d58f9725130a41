package pipeline

import (
	"context"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// TestPipelineSharesMiddleEnds builds the ISA × level grid over the
// tiny suite the way the Fig. 11 set-up does, ISA by ISA, on a worker
// pool: every (workload, original or clone, level above -O0) program must
// be optimized exactly once, the memo must be empty afterwards, and the
// computed compile count must be the grid's, as without the memo.
func TestPipelineSharesMiddleEnds(t *testing.T) {
	var suite []*workloads.Workload
	for _, n := range []string{"crc32/small", "dijkstra/small", "fft/small1"} {
		suite = append(suite, workloads.ByName(n))
	}
	p := New(Options{Workers: 3})
	type build struct {
		cp    *hlc.CheckedProgram
		level compiler.OptLevel
	}
	var mu sync.Mutex
	builds := map[build]int{}
	p.middle.optimize = func(cp *hlc.CheckedProgram, level compiler.OptLevel) (*compiler.Optimized, error) {
		mu.Lock()
		builds[build{cp, level}]++
		mu.Unlock()
		return compiler.Optimize(cp, level)
	}

	type job struct {
		w      *workloads.Workload
		target *isa.Desc
		level  compiler.OptLevel
	}
	var jobs []job
	for _, target := range middleISAs {
		for _, level := range compiler.Levels {
			for _, w := range suite {
				jobs = append(jobs, job{w, target, level})
			}
		}
	}
	ctx := context.Background()
	if err := ForEach(ctx, p, jobs, func(ctx context.Context, j job) error {
		_, err := p.PairAt(ctx, j.w, j.target, j.level)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	if want := len(suite) * 2 * (len(compiler.Levels) - 1); len(builds) != want {
		t.Errorf("%d programs optimized, want %d", len(builds), want)
	}
	for b, n := range builds {
		if b.level == compiler.O0 || n != 1 {
			t.Errorf("a program was optimized %d times at %v", n, b.level)
		}
	}
	if n := len(p.middle.m); n != 0 {
		t.Errorf("memo holds %d entries after the grid, want 0", n)
	}
	want := uint64(len(suite) * 2 * len(middleISAs) * len(compiler.Levels))
	if got := p.CacheStats().ComputedFor(StageCompile); got != want {
		t.Errorf("computed compile = %d, want %d", got, want)
	}
}
