package pipeline_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/compiler"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

func mustWorkload(t *testing.T, name string) *workloads.Workload {
	t.Helper()
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("missing workload %s", name)
	}
	return w
}

// staticInstrs counts a program's instructions across all functions.
func staticInstrs(p *isa.Program) int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

func tinySuite(t *testing.T) []*workloads.Workload {
	t.Helper()
	var out []*workloads.Workload
	for _, n := range []string{"crc32/small", "dijkstra/small", "fft/small1"} {
		out = append(out, mustWorkload(t, n))
	}
	return out
}

// TestPipelineCacheAccounting verifies that artifacts are computed once and
// shared: a repeated identical request is all hits, and a new optimization
// level adds exactly the two compiles (original and clone) it needs.
func TestPipelineCacheAccounting(t *testing.T) {
	p := pipeline.New(pipeline.Options{Workers: 2, Seed: 1})
	ctx := context.Background()
	w := mustWorkload(t, "crc32/small")

	if _, err := p.PairAt(ctx, w, isa.AMD64, compiler.O0); err != nil {
		t.Fatal(err)
	}
	first := p.CacheStats()
	if first.Misses == 0 {
		t.Fatal("first request should populate the cache")
	}

	if _, err := p.PairAt(ctx, w, isa.AMD64, compiler.O0); err != nil {
		t.Fatal(err)
	}
	second := p.CacheStats()
	if second.Misses != first.Misses {
		t.Errorf("repeated request recomputed artifacts: misses %d -> %d", first.Misses, second.Misses)
	}
	if second.Hits <= first.Hits {
		t.Errorf("repeated request did not hit the cache: hits %d -> %d", first.Hits, second.Hits)
	}

	if _, err := p.PairAt(ctx, w, isa.AMD64, compiler.O2); err != nil {
		t.Fatal(err)
	}
	third := p.CacheStats()
	if got := third.Misses - second.Misses; got != 2 {
		t.Errorf("new level should add exactly 2 compiles (orig+clone), added %d misses", got)
	}
}

// TestPipelineCacheSharedAcrossStages verifies the cross-stage reuse the
// seed code lacked: profiling compiles the workload at the profiling point,
// and a later explicit compile at that same point is a cache hit.
func TestPipelineCacheSharedAcrossStages(t *testing.T) {
	p := pipeline.New(pipeline.Options{Workers: 1, Seed: 1})
	ctx := context.Background()
	w := mustWorkload(t, "crc32/small")

	if _, err := p.Profile(ctx, w); err != nil {
		t.Fatal(err)
	}
	before := p.CacheStats()
	if _, err := p.Compile(ctx, w, isa.AMD64, compiler.O0); err != nil {
		t.Fatal(err)
	}
	after := p.CacheStats()
	if after.Misses != before.Misses {
		t.Errorf("compile at the profiling point should be cached: misses %d -> %d",
			before.Misses, after.Misses)
	}
}

// TestPipelineConcurrentSingleflight hammers one artifact from many
// goroutines through Map and checks it is computed exactly once.
func TestPipelineConcurrentSingleflight(t *testing.T) {
	p := pipeline.New(pipeline.Options{Workers: 8, Seed: 1})
	ctx := context.Background()
	w := mustWorkload(t, "crc32/small")

	jobs := make([]int, 32)
	_, err := pipeline.Map(ctx, p, jobs, func(ctx context.Context, _ int) (*isa.Program, error) {
		return p.Compile(ctx, w, isa.AMD64, compiler.O1)
	})
	if err != nil {
		t.Fatal(err)
	}
	st := p.CacheStats()
	// parse + check + compile = 3 artifacts; everything else coalesced.
	if st.Misses != 3 {
		t.Errorf("expected 3 artifact computations (parse, check, compile), got %d misses", st.Misses)
	}
	if st.Hits < uint64(len(jobs)-1) {
		t.Errorf("expected at least %d coalesced hits, got %d", len(jobs)-1, st.Hits)
	}
}

// TestPipelineCancellation cancels the context mid-fan-out and expects the
// run to stop early with context.Canceled instead of finishing every job.
func TestPipelineCancellation(t *testing.T) {
	p := pipeline.New(pipeline.Options{Workers: 2, Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	suite := tinySuite(t)
	var jobs []int
	for i := 0; i < 64; i++ {
		jobs = append(jobs, i)
	}
	var started atomic.Int32
	_, err := pipeline.Map(ctx, p, jobs, func(ctx context.Context, i int) (int, error) {
		if started.Add(1) == 1 {
			cancel() // first job pulls the plug on everyone
		}
		w := suite[i%len(suite)]
		if _, err := p.Compile(ctx, w, isa.AMD64, compiler.Levels[i%len(compiler.Levels)]); err != nil {
			return 0, err
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := started.Load(); n == int32(len(jobs)) {
		t.Errorf("cancellation did not stop the fan-out: all %d jobs ran", n)
	}
}

// TestPipelineDeterministicAcrossWorkers runs the same job set on a serial
// and a wide pipeline and requires identical artifacts and orderings.
func TestPipelineDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	suite := tinySuite(t)

	type point struct {
		w     *workloads.Workload
		level compiler.OptLevel
	}
	var jobs []point
	for _, w := range suite {
		for _, level := range compiler.Levels {
			jobs = append(jobs, point{w, level})
		}
	}

	type outcome struct {
		CloneSource string
		OrigStatic  int
		SynStatic   int
	}
	runWith := func(workers int) []outcome {
		p := pipeline.New(pipeline.Options{Workers: workers, Seed: 7})
		res, err := pipeline.Map(ctx, p, jobs, func(ctx context.Context, pt point) (outcome, error) {
			pair, err := p.PairAt(ctx, pt.w, isa.AMD64, pt.level)
			if err != nil {
				return outcome{}, err
			}
			return outcome{
				CloneSource: pair.Clone.Source,
				OrigStatic:  staticInstrs(pair.Orig),
				SynStatic:   staticInstrs(pair.Syn),
			}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	serial := runWith(1)
	wide := runWith(8)
	for i := range jobs {
		if serial[i] != wide[i] {
			t.Fatalf("job %d (%s %v) differs between -workers=1 and -workers=8",
				i, jobs[i].w.Name, jobs[i].level)
		}
	}
}

// TestPipelineStageErrors checks that failures carry their stage and
// workload coordinates.
func TestPipelineStageErrors(t *testing.T) {
	p := pipeline.New(pipeline.Options{Workers: 1})
	ctx := context.Background()

	bad := &workloads.Workload{Name: "bad/parse", Bench: "bad", Source: "void main( {"}
	_, err := p.Compile(ctx, bad, isa.AMD64, compiler.O0)
	var se *pipeline.StageError
	if !errors.As(err, &se) {
		t.Fatalf("want *StageError, got %T: %v", err, err)
	}
	if se.Stage != pipeline.StageParse || se.Workload != "bad/parse" {
		t.Errorf("wrong coordinates: stage=%v workload=%q", se.Stage, se.Workload)
	}
	if se.Error() == "" || se.Unwrap() == nil {
		t.Error("StageError must render and unwrap")
	}

	// The error was not cached: a later request retries the computation.
	missesAfterFailure := p.CacheStats().Misses
	_, err2 := p.Compile(ctx, bad, isa.AMD64, compiler.O0)
	if !errors.As(err2, &se) {
		t.Fatalf("second attempt: want *StageError, got %v", err2)
	}
	if p.CacheStats().Misses == missesAfterFailure {
		t.Error("failed artifact should not be cached")
	}
}

// TestPipelineMapErrorDeterminism makes one job fail and requires that
// exact failure (not a sibling's cancellation) to be the error reported,
// for any worker count.
func TestPipelineMapErrorDeterminism(t *testing.T) {
	ctx := context.Background()
	jobs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, workers := range []int{1, 4} {
		p := pipeline.New(pipeline.Options{Workers: workers})
		_, err := pipeline.Map(ctx, p, jobs, func(ctx context.Context, i int) (int, error) {
			if i == 3 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Errorf("workers=%d: want the failing job's error, got %v", workers, err)
		}
	}
}

// TestPipelineValidate runs the Validate stage end to end.
func TestPipelineValidate(t *testing.T) {
	p := pipeline.New(pipeline.Options{Workers: 2, Seed: 1})
	ctx := context.Background()
	if err := p.Validate(ctx, mustWorkload(t, "crc32/small")); err != nil {
		t.Fatalf("clone failed validation: %v", err)
	}
}

// TestPipelineKeyDigest pins the content-address property: equal keys agree,
// and changing any field changes the digest.
func TestPipelineKeyDigest(t *testing.T) {
	base := pipeline.Key{Stage: pipeline.StageCompile, Workload: "crc32/small",
		ISA: "amd64v", Level: compiler.O2, Seed: 9}
	if base.Digest() != base.Digest() {
		t.Fatal("digest is not stable")
	}
	variants := []pipeline.Key{base, base, base, base, base}
	variants[0].Stage = pipeline.StageProfile
	variants[1].Workload = "crc32/large"
	variants[2].Level = compiler.O3
	variants[3].Seed = 10
	variants[4].Clone = true
	seen := map[string]bool{base.Digest(): true}
	for i, k := range variants {
		d := k.Digest()
		if seen[d] {
			t.Errorf("variant %d collides with a previous digest", i)
		}
		seen[d] = true
	}
}
