package cluster

import (
	"context"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// testExploreSpec builds a 2-point exploration dispatch over the given
// workloads.
func testExploreSpec(names ...string) Spec {
	return Spec{
		Suite: "test", Workloads: names,
		ISAs: []string{"amd64v"}, Levels: []int{2},
		Seed:         1,
		Explore:      []cpu.Config{cpu.Simulated2Wide(8), cpu.Simulated2Wide(32)},
		SimMaxInstrs: 100_000,
	}
}

// TestClusterExploreDispatchExecuteDedup covers the exploration job
// lifecycle: dispatch enqueues explore-kind jobs, a worker drains them by
// simulating every (config, level) cell, and — after resetting the queue
// but keeping the store — a fresh dispatch dedups every job against the
// stored simulation artifacts without enqueueing anything.
func TestClusterExploreDispatchExecuteDedup(t *testing.T) {
	ctx := context.Background()
	q := testQueue(t)
	spec := testExploreSpec("crc32/small", "dijkstra/small")
	p := testPipeline(t, q, spec)

	out, err := Dispatch(ctx, q, p, spec, DispatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Enqueued != 2 {
		t.Fatalf("dispatch: %+v", out)
	}

	w := &Worker{Queue: q, Pipe: p, Spec: spec, ID: "w1"}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if m := w.Metrics.Snapshot(); m.JobsOK != 2 || m.JobsFailed != 0 {
		t.Fatalf("worker metrics: %+v", m)
	}
	results, err := q.Results()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		// 2 configs × 1 level × 2 sides = 4 simulations per workload.
		if got := r.Stats.ComputedFor(pipeline.StageSimulate); got != 4 {
			t.Errorf("job %s computed %d simulations, want 4", r.Job.Workload, got)
		}
	}

	// Fresh queue over the warm store: everything dedups.
	if err := q.Reset(); err != nil {
		t.Fatal(err)
	}
	out, err = Dispatch(ctx, q, p, spec, DispatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Deduped != 2 || out.Enqueued != 0 {
		t.Fatalf("warm dispatch should dedup everything: %+v", out)
	}

	// A different simulation bound is different work: nothing dedups.
	if err := q.Reset(); err != nil {
		t.Fatal(err)
	}
	bounded := spec
	bounded.SimMaxInstrs = 50_000
	out, err = Dispatch(ctx, q, p, bounded, DispatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Enqueued != 2 || out.Deduped != 0 {
		t.Fatalf("bound change should invalidate dedup: %+v", out)
	}
}

// TestClusterExploreSpecValidation rejects bad exploration points before
// any queue mutation.
func TestClusterExploreSpecValidation(t *testing.T) {
	ctx := context.Background()
	q := testQueue(t)
	spec := testExploreSpec("crc32/small")
	spec.Explore[1].L1KB = 12 // not a power of two
	p := testPipeline(t, q, spec)
	if _, err := Dispatch(ctx, q, p, spec, DispatchOptions{}); err == nil ||
		!strings.Contains(err.Error(), "explore point") {
		t.Fatalf("invalid explore point accepted: %v", err)
	}
	if c, _ := q.Counts(); c.Pending != 0 {
		t.Fatalf("failed dispatch enqueued jobs: %+v", c)
	}
}

// TestClusterExploreCanonicalCoversPoints pins the dispatch identity to
// the exploration grid: reordering, changing, or dropping points changes
// the digest, so stale workers abort instead of simulating the wrong
// machines.
func TestClusterExploreCanonicalCoversPoints(t *testing.T) {
	spec := testExploreSpec("crc32/small")
	base := spec.Digest()
	mutated := testExploreSpec("crc32/small")
	mutated.Explore[0].MemLat++
	if mutated.Digest() == base {
		t.Error("config change invisible to the dispatch digest")
	}
	swapped := testExploreSpec("crc32/small")
	swapped.Explore[0], swapped.Explore[1] = swapped.Explore[1], swapped.Explore[0]
	if swapped.Digest() == base {
		t.Error("point order invisible to the dispatch digest")
	}
	plain := testExploreSpec("crc32/small")
	plain.Explore = nil
	if plain.Digest() == base {
		t.Error("dropping the exploration grid invisible to the dispatch digest")
	}
	if plain.Cells() != 1 || spec.Cells() != 2 {
		t.Errorf("cells per job: plain %d, explore %d; want 1 and 2", plain.Cells(), spec.Cells())
	}
}

// TestClusterExploreWorkerExecutesPair sanity-checks that an exploration
// job's simulations land under the same keys a local SimulatePair uses,
// which is what makes dispatcher-side aggregation free.
func TestClusterExploreWorkerExecutesPair(t *testing.T) {
	ctx := context.Background()
	q := testQueue(t)
	spec := testExploreSpec("crc32/small")
	p := testPipeline(t, q, spec)
	if _, err := Dispatch(ctx, q, p, spec, DispatchOptions{}); err != nil {
		t.Fatal(err)
	}
	w := &Worker{Queue: q, Pipe: p, Spec: spec, ID: "w1"}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	wl := workloads.ByName("crc32/small")
	st := q.Store()
	for _, cfg := range spec.Explore {
		for _, k := range p.SimKeys(wl, isa.AMD64, compiler.O2, cfg, spec.SimMaxInstrs) {
			if !st.Has(k.Digest(), k.StoreKind(), k.Canonical()) {
				t.Errorf("simulation artifact missing for %s (clone=%v)", cfg.Name, k.Clone)
			}
		}
	}
}
