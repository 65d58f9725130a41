package cluster

// The chaos suite: fault scenarios — worker crash mid-job, store flake
// during ack, lease expiry under a stalled worker, artifact corruption —
// must all converge to a complete store byte-identical to a clean solo
// run, with no lost and no double-executed jobs. Faults are injected with
// storefault.Fault, the scripted Backend decorator.

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/store"
	"repro/internal/store/storefault"
	"repro/internal/workloads"
)

// chaosSpec is the workload set every chaos scenario drains: two jobs, so
// crash/reclaim interleavings have room to differ from the happy path.
func chaosSpec() Spec {
	return testSpec("crc32/small", "dijkstra/small")
}

// storeSnapshot maps every artifact file under dir (excluding the cluster
// queue and in-progress marker subtrees, which are coordination state, not
// artifacts) to its exact bytes.
func storeSnapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(dir, func(path string, info fs.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if info.IsDir() {
			if rel == queueDir || rel == store.WIPDir {
				return filepath.SkipDir
			}
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[filepath.ToSlash(rel)] = string(data)
		return nil
	})
	if err != nil {
		t.Fatalf("snapshot %s: %v", dir, err)
	}
	if len(out) == 0 {
		t.Fatalf("snapshot %s: empty store", dir)
	}
	return out
}

// assertSameStore fails unless both directories hold byte-identical
// artifact sets.
func assertSameStore(t *testing.T, gotDir, wantDir string) {
	t.Helper()
	got, want := storeSnapshot(t, gotDir), storeSnapshot(t, wantDir)
	if len(got) != len(want) {
		t.Errorf("store has %d artifacts, reference has %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("artifact %s missing from converged store", name)
			continue
		}
		if g != w {
			t.Errorf("artifact %s differs from the solo reference", name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("artifact %s not present in the solo reference", name)
		}
	}
}

// soloReference cold-drains spec on a clean store with one fault-free
// worker and returns the store directory and the summed per-stage compute
// counters — the ground truth each chaos scenario must reproduce.
func soloReference(t *testing.T, spec Spec) (string, pipeline.CacheStats) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	q, err := OpenQueue(st)
	if err != nil {
		t.Fatal(err)
	}
	p := testPipeline(t, q, spec)
	ctx := context.Background()
	if _, err := Dispatch(ctx, q, p, spec, DispatchOptions{}); err != nil {
		t.Fatal(err)
	}
	w := &Worker{Queue: q, Pipe: p, Spec: spec, ID: "solo", Poll: 5 * time.Millisecond}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	return dir, summedStats(t, q, spec)
}

// summedStats adds up the per-job compute counters recorded in the queue's
// results.
func summedStats(t *testing.T, q *Queue, spec Spec) pipeline.CacheStats {
	t.Helper()
	results, err := q.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(spec.Jobs()) {
		t.Fatalf("queue holds %d results, want %d", len(results), len(spec.Jobs()))
	}
	var sum pipeline.CacheStats
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("job %s failed: %s", r.Job.Workload, r.Err)
		}
		sum = sum.Add(r.Stats)
	}
	return sum
}

// chaosQueue builds a queue whose backend is a fault decorator over a
// fresh filesystem store, returning the store directory for snapshotting.
func chaosQueue(t *testing.T) (*Queue, *storefault.Fault, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := storefault.New(st)
	q, err := OpenQueue(f)
	if err != nil {
		t.Fatal(err)
	}
	return q, f, dir
}

// TestChaosWorkerCrashMidJob: a worker claims a job and dies without
// heartbeating. A healthy worker must reclaim the expired lease, execute
// everything exactly once, and leave a store byte-identical to a solo run.
func TestChaosWorkerCrashMidJob(t *testing.T) {
	spec := chaosSpec()
	refDir, refStats := soloReference(t, spec)

	q, _, dir := chaosQueue(t)
	p := testPipeline(t, q, spec)
	ctx := context.Background()
	if _, err := Dispatch(ctx, q, p, spec, DispatchOptions{}); err != nil {
		t.Fatal(err)
	}
	lease, err := q.Claim("crashed")
	if err != nil || lease == nil {
		t.Fatalf("crash setup claim: %v %v", lease, err)
	}
	backdate(t, dir, lease, time.Minute) // the dead worker stops heartbeating

	w := &Worker{Queue: q, Pipe: p, Spec: spec, ID: "healthy", TTL: time.Second, Poll: 5 * time.Millisecond}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("healthy worker: %v", err)
	}
	sum := summedStats(t, q, spec)
	if sum != refStats {
		t.Errorf("computed %+v, solo reference computed %+v (lost or duplicated work)", sum, refStats)
	}
	results, _ := q.Results()
	for _, r := range results {
		if r.Worker != "healthy" {
			t.Errorf("job %s acked by %q, want the healthy worker", r.Job.Workload, r.Worker)
		}
	}
	assertSameStore(t, dir, refDir)
}

// TestChaosStoreFlakeDuringAck: the first two result writes fail with a
// transient error. The worker's ack retry must ride the flake out and the
// queue must converge with every job acked exactly once.
func TestChaosStoreFlakeDuringAck(t *testing.T) {
	spec := chaosSpec()
	refDir, refStats := soloReference(t, spec)

	q, f, dir := chaosQueue(t)

	// Compress the retry backoff so the test rides the flake out quickly.
	savedAttempts, savedBackoff := ackAttempts, ackBackoff
	ackAttempts, ackBackoff = 4, time.Millisecond
	defer func() { ackAttempts, ackBackoff = savedAttempts, savedBackoff }()

	p := testPipeline(t, q, spec)
	ctx := context.Background()
	if _, err := Dispatch(ctx, q, p, spec, DispatchOptions{}); err != nil {
		t.Fatal(err)
	}
	// Script the flake only after dispatch: the fault under test is an ack
	// blip mid-drain, not a broken dispatch.
	f.Script(storefault.Rule{Op: "writefile", Match: "cluster/done/", Count: 2, Err: errInjectedChaos})
	w := &Worker{Queue: q, Pipe: p, Spec: spec, ID: "w1", Poll: 5 * time.Millisecond}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker under ack flake: %v", err)
	}
	if f.Fired("writefile") != 2 {
		t.Fatalf("fault script fired %d times, want 2", f.Fired("writefile"))
	}
	sum := summedStats(t, q, spec)
	if sum != refStats {
		t.Errorf("computed %+v, solo reference computed %+v", sum, refStats)
	}
	assertSameStore(t, dir, refDir)
}

// TestChaosLeaseExpiryUnderStalledWorker: a worker stalls mid-job past the
// TTL; its job is reclaimed and redone by a healthy worker. The stalled
// worker then wakes up and acks late — which must be benign: the store is
// content-addressed, so both executions produced identical artifacts.
func TestChaosLeaseExpiryUnderStalledWorker(t *testing.T) {
	spec := chaosSpec()
	refDir, _ := soloReference(t, spec)

	q, _, dir := chaosQueue(t)
	p := testPipeline(t, q, spec)
	ctx := context.Background()
	if _, err := Dispatch(ctx, q, p, spec, DispatchOptions{}); err != nil {
		t.Fatal(err)
	}
	stalled, err := q.Claim("stalled")
	if err != nil || stalled == nil {
		t.Fatalf("stall setup claim: %v %v", stalled, err)
	}
	backdate(t, dir, stalled, time.Minute)

	w := &Worker{Queue: q, Pipe: p, Spec: spec, ID: "healthy", TTL: time.Second, Poll: 5 * time.Millisecond}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("healthy worker: %v", err)
	}
	// The stalled worker finally finishes and acks its long-lost lease.
	if err := stalled.Ack(Result{Job: stalled.Job, Worker: "stalled"}); err != nil {
		t.Fatalf("late ack must be benign: %v", err)
	}
	c, err := q.Counts()
	if err != nil || c.Done != len(spec.Jobs()) || c.Pending != 0 || c.Leased != 0 {
		t.Fatalf("queue after late ack: %+v, %v", c, err)
	}
	assertSameStore(t, dir, refDir)
}

// TestChaosCorruptedArtifactRecomputed: a corrupted store read must
// degrade to recomputation — the pipeline re-derives the artifact and the
// store converges back to the reference bytes.
func TestChaosCorruptedArtifactRecomputed(t *testing.T) {
	spec := chaosSpec()
	refDir, _ := soloReference(t, spec)

	// Warm a store, then read it through a corrupting backend.
	q, f, dir := chaosQueue(t)
	p := testPipeline(t, q, spec)
	ctx := context.Background()
	if _, err := Dispatch(ctx, q, p, spec, DispatchOptions{}); err != nil {
		t.Fatal(err)
	}
	w := &Worker{Queue: q, Pipe: p, Spec: spec, ID: "warmup", Poll: 5 * time.Millisecond}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	f.Script(storefault.Rule{Op: "get", Count: 1, Corrupt: true})

	// A fresh pipeline over the same (now corrupting) backend: its first
	// disk read comes back damaged, fails decode, and is recomputed.
	p2 := testPipeline(t, q, spec)
	wl := workloads.ByName("crc32/small")
	if _, err := p2.Profile(ctx, wl); err != nil {
		t.Fatalf("profile through corrupting store: %v", err)
	}
	if f.Fired("get") != 1 {
		t.Fatalf("corruption fired %d times, want 1", f.Fired("get"))
	}
	if stats := p2.CacheStats(); stats.DiskErrors == 0 {
		t.Errorf("corrupted read was not counted as a disk error: %+v", stats)
	}
	assertSameStore(t, dir, refDir)
}

// errInjectedChaos distinguishes scripted faults in failure messages.
var errInjectedChaos = errors.New("injected chaos flake")

// TestChaosSupervisorStoreFlake drives the embedded pool against a flaky
// backend end to end: claims, heartbeats, and acks all hit injected
// errors, and the supervisor must still converge the queue.
func TestChaosSupervisorStoreFlake(t *testing.T) {
	spec := chaosSpec()
	refDir, refStats := soloReference(t, spec)

	q, f, dir := chaosQueue(t)
	savedAttempts, savedBackoff := ackAttempts, ackBackoff
	ackAttempts, ackBackoff = 4, time.Millisecond
	defer func() { ackAttempts, ackBackoff = savedAttempts, savedBackoff }()

	p := testPipeline(t, q, spec)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := Dispatch(ctx, q, p, spec, DispatchOptions{}); err != nil {
		t.Fatal(err)
	}
	// Script flakes on every coordination path the pool exercises — an ack
	// write, claim listings, and a claim-time touch — after dispatch, so the
	// supervisor (not the dispatcher) has to ride them out.
	f.Script(
		storefault.Rule{Op: "writefile", Match: "cluster/done/", Count: 1, Err: errInjectedChaos},
		storefault.Rule{Op: "list", Match: "cluster/pending", Skip: 2, Count: 2, Err: errInjectedChaos},
		storefault.Rule{Op: "touch", Match: "cluster/pending/", Count: 1, Err: errInjectedChaos},
	)
	// Max 1: per-job stat deltas are snapshots of the pool's shared
	// pipeline, so they only partition exactly (making the strict
	// no-duplication sum below valid) when jobs run sequentially.
	// Concurrent-pool paths are covered by TestSupervisorAutoscaleRace.
	sup, err := NewSupervisor(q, SupervisorOptions{
		Node: "flaky", Min: 1, Max: 1,
		Poll: 5 * time.Millisecond, Interval: 20 * time.Millisecond,
		PipelineWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- sup.Run(ctx) }()

	waitFor(t, 60*time.Second, "queue to converge under store flakes", func() bool {
		c, err := q.Counts()
		return err == nil && c.Done == len(spec.Jobs())
	})
	cancel()
	<-runDone

	sum := summedStats(t, q, spec)
	if sum != refStats {
		t.Errorf("computed %+v, solo reference computed %+v", sum, refStats)
	}
	if f.Fired("writefile") != 1 {
		t.Errorf("ack flake fired %d times, want 1", f.Fired("writefile"))
	}
	if !strings.HasPrefix(sup.Status().Node, "flaky") {
		t.Fatalf("status node = %q", sup.Status().Node)
	}
	assertSameStore(t, dir, refDir)
}
