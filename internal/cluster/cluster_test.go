package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/store"
)

// testPipeline builds the pipeline a worker for spec would run with,
// exactly as the CLI does: the manifest's seed plus the queue's store.
func testPipeline(t *testing.T, q *Queue, spec Spec) *pipeline.Pipeline {
	t.Helper()
	return pipeline.New(pipeline.Options{Workers: 2, Seed: spec.Seed, Store: q.Store()})
}

// TestClusterDispatchDrainDedup is the coordinator's core property chain:
// a dispatch enqueues everything, one worker drains it, an identical
// re-dispatch is a no-op, and after clearing the results a third dispatch
// dedups every job straight from the store without re-enqueueing anything.
func TestClusterDispatchDrainDedup(t *testing.T) {
	ctx := context.Background()
	q := testQueue(t)
	spec := testSpec("crc32/small", "dijkstra/small")
	p := testPipeline(t, q, spec)

	out, err := Dispatch(ctx, q, p, spec, DispatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Total != 2 || out.Enqueued != 2 || out.Deduped != 0 {
		t.Fatalf("cold dispatch: %+v", out)
	}

	w := &Worker{Queue: q, Pipe: p, ID: "w1"}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if m := w.Metrics.Snapshot(); m.JobsOK != 2 || m.JobsFailed != 0 {
		t.Fatalf("worker metrics: %+v", m)
	}
	results, err := Wait(ctx, q, WaitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results: %d", len(results))
	}
	for _, r := range results {
		if r.Worker != "w1" || r.Stats.ComputedFor(pipeline.StageSynthesize) != 1 {
			t.Errorf("result %s: worker=%s stats=%+v", r.Job.Workload, r.Worker, r.Stats)
		}
	}

	// Identical re-dispatch: results already recorded, nothing moves.
	out, err = Dispatch(ctx, q, p, spec, DispatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.AlreadyDone != 2 || out.Enqueued != 0 {
		t.Fatalf("idempotent re-dispatch: %+v", out)
	}

	// Clear the queue but keep the store: every job dedups against the
	// artifacts and goes straight to done.
	if err := q.Reset(); err != nil {
		t.Fatal(err)
	}
	out, err = Dispatch(ctx, q, p, spec, DispatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Deduped != 2 || out.Enqueued != 0 {
		t.Fatalf("warm dispatch must dedup from store: %+v", out)
	}
	if c, _ := q.Counts(); c.Done != 2 || c.Pending != 0 {
		t.Fatalf("counts after dedup dispatch: %+v", c)
	}

	// Force re-enqueues regardless; the worker then recomputes nothing
	// because the store is warm.
	out, err = Dispatch(ctx, q, p, spec, DispatchOptions{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Enqueued != 2 {
		t.Fatalf("forced dispatch: %+v", out)
	}
	warmPipe := testPipeline(t, q, spec)
	w2 := &Worker{Queue: q, Pipe: warmPipe, ID: "w2"}
	if err := w2.Run(ctx); err != nil {
		t.Fatal(err)
	}
	results, err = q.Results()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		for _, st := range []pipeline.Stage{pipeline.StageCompile, pipeline.StageProfile, pipeline.StageSynthesize} {
			if n := r.Stats.ComputedFor(st); n != 0 {
				t.Errorf("forced warm job %s recomputed %d %v artifacts", r.Job.Workload, n, st)
			}
		}
	}
}

// TestClusterDispatchConflict checks a different spec cannot hijack a
// queue with unfinished jobs, but can replace a drained one.
func TestClusterDispatchConflict(t *testing.T) {
	ctx := context.Background()
	q := testQueue(t)
	specA := testSpec("crc32/small")
	p := testPipeline(t, q, specA)
	if _, err := Dispatch(ctx, q, p, specA, DispatchOptions{}); err != nil {
		t.Fatal(err)
	}

	specB := testSpec("dijkstra/small")
	if _, err := Dispatch(ctx, q, p, specB, DispatchOptions{}); err == nil ||
		!strings.Contains(err.Error(), "busy") {
		t.Fatalf("conflicting dispatch over pending jobs: %v", err)
	}

	// Drain spec A; then spec B may reset and take over.
	w := &Worker{Queue: q, Pipe: p, ID: "w1"}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	out, err := Dispatch(ctx, q, p, specB, DispatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Enqueued != 1 {
		t.Fatalf("replacement dispatch: %+v", out)
	}
	m, err := q.Manifest()
	if err != nil || m.Canonical != specB.Canonical() {
		t.Fatalf("manifest after replacement: %+v, %v", m, err)
	}
	if c, _ := q.Counts(); c.Done != 0 {
		t.Fatalf("old results must not survive a spec change: %+v", c)
	}

	// A stale pending copy of a done job — the residue of an ack racing a
	// reclaim — must not hold the queue hostage: spec B's job finishes,
	// its result lands, but a pending duplicate reappears; a third spec
	// still takes over.
	jobB := specB.Jobs()[0]
	if err := q.WriteResult(Result{Job: jobB, Worker: "w1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.be.Stat(q.pendingName(jobB.ID())); err != nil {
		t.Fatalf("test setup: pending copy missing: %v", err)
	}
	specC := testSpec("fft/small1")
	if _, err := Dispatch(ctx, q, p, specC, DispatchOptions{}); err != nil {
		t.Fatalf("stale pending residue blocked a new dispatch: %v", err)
	}
}

// TestClusterDispatchValidation checks bad specs fail before anything is
// enqueued.
func TestClusterDispatchValidation(t *testing.T) {
	ctx := context.Background()
	q := testQueue(t)
	good := testSpec("crc32/small")
	p := testPipeline(t, q, good)

	bad := []Spec{
		{},
		func() Spec { s := testSpec("no/such"); return s }(),
		func() Spec { s := testSpec("crc32/small"); s.ISAs = []string{"z80"}; return s }(),
		func() Spec { s := testSpec("crc32/small"); s.Levels = []int{9}; return s }(),
	}
	for i, s := range bad {
		if _, err := Dispatch(ctx, q, p, s, DispatchOptions{}); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if c, _ := q.Counts(); c.Pending != 0 {
		t.Fatalf("failed dispatches enqueued jobs: %+v", c)
	}
}

// TestClusterWorkerFailedJob checks a job that cannot execute converges to
// done with an error recorded instead of wedging the queue.
func TestClusterWorkerFailedJob(t *testing.T) {
	ctx := context.Background()
	q := testQueue(t)
	spec := testSpec("crc32/small")
	p := testPipeline(t, q, spec)

	// Enqueue a poisoned job directly, bypassing Dispatch's validation —
	// modeling a workload that exists at dispatch time but fails in the
	// worker's binary.
	poisoned := Job{Workload: "no/such", ISAs: spec.ISAs, Levels: spec.Levels, Dispatch: "x"}
	if _, err := q.Enqueue(poisoned); err != nil {
		t.Fatal(err)
	}
	w := &Worker{Queue: q, Pipe: p, ID: "w1"}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if m := w.Metrics.Snapshot(); m.JobsOK != 0 || m.JobsFailed != 1 {
		t.Fatalf("worker metrics: %+v", m)
	}
	results, err := q.Results()
	if err != nil || len(results) != 1 || results[0].Err == "" {
		t.Fatalf("failed job result: %+v, %v", results, err)
	}
}

// TestClusterWorkerCanceled checks cancellation releases a held lease back
// to pending instead of letting it wait out the TTL.
func TestClusterWorkerCanceled(t *testing.T) {
	q := testQueue(t)
	spec := testSpec("crc32/small")
	p := testPipeline(t, q, spec)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Dispatch(context.Background(), q, p, spec, DispatchOptions{}); err != nil {
		t.Fatal(err)
	}
	w := &Worker{Queue: q, Pipe: p, ID: "w1"}
	if err := w.Run(ctx); err == nil {
		t.Fatal("canceled worker must return an error")
	}
	if c, _ := q.Counts(); c.Pending != 1 || c.Leased != 0 {
		t.Fatalf("counts after canceled worker: %+v", c)
	}
}

// TestClusterDispatchDedupClearsStalePending covers the no-worker dedup
// path: jobs enqueued by an earlier dispatch whose artifacts later appear
// in the store (computed by any other route) must leave the queue fully
// drained — done recorded, stale pending file removed — so a different
// spec can take over afterwards.
func TestClusterDispatchDedupClearsStalePending(t *testing.T) {
	ctx := context.Background()
	q := testQueue(t)
	spec := testSpec("crc32/small")
	p := testPipeline(t, q, spec)

	if _, err := Dispatch(ctx, q, p, spec, DispatchOptions{}); err != nil {
		t.Fatal(err)
	}
	// No worker runs; the store fills through another route (here: the
	// same pipeline, as `synth experiments -store` would).
	if err := runJobInline(ctx, t, p, spec); err != nil {
		t.Fatal(err)
	}
	out, err := Dispatch(ctx, q, p, spec, DispatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Deduped != 1 {
		t.Fatalf("re-dispatch over a warm store: %+v", out)
	}
	if c, _ := q.Counts(); c.Pending != 0 || c.Done != 1 {
		t.Fatalf("dedup left the queue busy: %+v", c)
	}
	other := testSpec("dijkstra/small")
	if _, err := Dispatch(ctx, q, p, other, DispatchOptions{}); err != nil {
		t.Fatalf("drained queue rejected a new spec: %v", err)
	}
}

// runJobInline computes one spec's artifacts directly on the pipeline,
// bypassing the queue.
func runJobInline(ctx context.Context, t *testing.T, p *pipeline.Pipeline, spec Spec) error {
	t.Helper()
	for _, j := range spec.Jobs() {
		w := &Worker{Pipe: p}
		if err := w.runJob(ctx, j); err != nil {
			return err
		}
	}
	return nil
}

// TestClusterStalledQueueDetected checks that a queue promising more jobs
// than exist — the residue of an interrupted dispatch — is reported by
// both Worker.Run and Wait instead of being polled forever.
func TestClusterStalledQueueDetected(t *testing.T) {
	ctx := context.Background()
	q := testQueue(t)
	spec := testSpec("crc32/small")
	p := testPipeline(t, q, spec)
	// Manifest promises two jobs; only one was ever enqueued.
	if err := q.WriteManifest(&Manifest{Version: SchemaVersion, Spec: spec,
		Canonical: spec.Canonical(), Total: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue(spec.Jobs()[0]); err != nil {
		t.Fatal(err)
	}

	w := &Worker{Queue: q, Pipe: p, ID: "w1", Poll: time.Millisecond, TTL: 30 * time.Millisecond}
	if err := w.Run(ctx); err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("worker on a stalled queue: %v", err)
	}
	if _, err := Wait(ctx, q, WaitOptions{Poll: time.Millisecond, TTL: 30 * time.Millisecond}); err == nil ||
		!strings.Contains(err.Error(), "stalled") {
		t.Fatalf("wait on a stalled queue: %v", err)
	}
}

// TestClusterWorkerRejectsForeignDispatch checks an idle worker that
// claims a job from a *different* dispatch aborts instead of executing the
// job with its stale pipeline, and hands the job back. The foreign job is
// either from a queue drained, reset and re-dispatched under the worker,
// or from the same spec dispatched by a coordinator built for the previous
// artifact version: the dispatch identity carries pipeline.ArtifactVersion,
// so such a worker never stores artifacts under keys that coordinator
// never reads.
func TestClusterWorkerRejectsForeignDispatch(t *testing.T) {
	ctx := context.Background()
	specA := testSpec("crc32/small")
	specB := testSpec("crc32/small")
	specB.Seed = 99
	prevVersion := specA.Jobs()[0]
	prevVersion.Dispatch = store.Fingerprint([]byte(strings.Replace(specA.Canonical(),
		fmt.Sprintf("|a%d|", pipeline.ArtifactVersion), fmt.Sprintf("|a%d|", pipeline.ArtifactVersion-1), 1)))
	for name, job := range map[string]Job{
		"re-dispatch":               specB.Jobs()[0],
		"previous artifact version": prevVersion,
	} {
		q := testQueue(t)
		if err := q.WriteManifest(&Manifest{Version: SchemaVersion, Spec: specA,
			Canonical: specA.Canonical(), Total: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := q.Enqueue(job); err != nil {
			t.Fatal(err)
		}
		w := &Worker{Queue: q, Pipe: testPipeline(t, q, specA), ID: "stale", Dispatch: specA.Digest()}
		if err := w.Run(ctx); err == nil || !strings.Contains(err.Error(), "re-dispatched") {
			t.Fatalf("%s: stale worker must abort on a foreign job: %v", name, err)
		}
		if c, _ := q.Counts(); c.Pending != 1 || c.Leased != 0 || c.Done != 0 {
			t.Fatalf("%s: foreign job must be handed back: %+v", name, c)
		}
	}
}

// TestClusterReportMerge checks the consolidator's arithmetic and
// rendering.
func TestClusterReportMerge(t *testing.T) {
	spec := testSpec("a/1", "b/2", "c/3")
	jobs := spec.Jobs()
	m := &Manifest{Version: SchemaVersion, Spec: spec, Canonical: spec.Canonical(), Total: 3}
	stats := func(compiled uint64) pipeline.CacheStats {
		var s pipeline.CacheStats
		s.Computed[pipeline.StageCompile] = compiled
		s.DiskHits = compiled * 2
		return s
	}
	results := []Result{
		{Job: jobs[0], Worker: "w1", Stats: stats(3), Millis: 100},
		{Job: jobs[1], Worker: "w2", Stats: stats(4), Millis: 50, Err: "boom"},
		{Job: jobs[2], Worker: "dispatch", Deduped: true},
	}
	r := BuildReport(m, results)
	if r.Total != 3 || r.Done != 3 || r.Failed != 1 || r.Deduped != 1 {
		t.Fatalf("report: %+v", r)
	}
	if r.Stats.ComputedFor(pipeline.StageCompile) != 7 || r.Stats.DiskHits != 14 {
		t.Fatalf("merged stats: %+v", r.Stats)
	}
	if r.Workers["w1"].Jobs != 1 || r.Workers["w2"].Failed != 1 || r.Workers["dispatch"].Jobs != 1 {
		t.Fatalf("per-worker: %+v", r.Workers)
	}
	var b strings.Builder
	r.Print(&b)
	out := b.String()
	for _, want := range []string{"3/3 jobs done", "1 deduped", "1 failed", "worker w1", "compile=7", "failed: b/2: boom"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}
