package cluster

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

func testQueue(t *testing.T) *Queue {
	t.Helper()
	return queueAt(t, t.TempDir())
}

// queueAt opens a queue over a filesystem store rooted at dir.
func queueAt(t *testing.T, dir string) *Queue {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	q, err := OpenQueue(st)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func testSpec(workloads ...string) Spec {
	return Spec{
		Suite: "test", Workloads: workloads,
		ISAs: []string{"amd64v"}, Levels: []int{0},
		Seed: 1,
	}
}

// backdate pushes a lease file's heartbeat into the past. It reaches
// through to the filesystem store rooted at dir (Backend has no "set
// mtime backwards" op — production code never needs one).
func backdate(t *testing.T, dir string, l *Lease, age time.Duration) {
	t.Helper()
	old := time.Now().Add(-age)
	if err := os.Chtimes(filepath.Join(dir, filepath.FromSlash(l.name)), old, old); err != nil {
		t.Fatal(err)
	}
}

// TestClusterQueueLifecycle walks one job through every state:
// manifest → pending → leased (with heartbeat) → done.
func TestClusterQueueLifecycle(t *testing.T) {
	q := testQueue(t)
	spec := testSpec("crc32/small")

	if m, err := q.Manifest(); err != nil || m != nil {
		t.Fatalf("fresh queue manifest = %v, %v; want nil, nil", m, err)
	}
	want := &Manifest{Version: SchemaVersion, Spec: spec, Canonical: spec.Canonical(), Total: 1}
	if err := q.WriteManifest(want); err != nil {
		t.Fatal(err)
	}
	m, err := q.Manifest()
	if err != nil || m == nil || m.Canonical != spec.Canonical() || m.Total != 1 {
		t.Fatalf("manifest round trip: %+v, %v", m, err)
	}

	job := spec.Jobs()[0]
	if ok, err := q.Enqueue(job); err != nil || !ok {
		t.Fatalf("enqueue: %v, %v", ok, err)
	}
	if ok, err := q.Enqueue(job); err != nil || ok {
		t.Fatalf("re-enqueue of pending job must be a no-op: %v, %v", ok, err)
	}
	if c, _ := q.Counts(); c.Pending != 1 || c.Leased != 0 || c.Done != 0 {
		t.Fatalf("counts after enqueue: %+v", c)
	}

	lease, err := q.Claim("w1")
	if err != nil || lease == nil {
		t.Fatalf("claim: %v, %v", lease, err)
	}
	if lease.Job.Workload != "crc32/small" || lease.Worker != "w1" {
		t.Fatalf("claimed lease: %+v", lease)
	}
	if ok, err := q.Enqueue(job); err != nil || ok {
		t.Fatalf("enqueue of leased job must be a no-op: %v, %v", ok, err)
	}
	if c, _ := q.Counts(); c.Pending != 0 || c.Leased != 1 {
		t.Fatalf("counts after claim: %+v", c)
	}
	if extra, err := q.Claim("w2"); err != nil || extra != nil {
		t.Fatalf("empty-queue claim: %v, %v", extra, err)
	}
	if err := lease.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	workers, err := q.Workers()
	if err != nil || workers["w1"] != 1 {
		t.Fatalf("workers: %v, %v", workers, err)
	}

	if err := lease.Ack(Result{Job: job, Worker: "w1", Millis: 5}); err != nil {
		t.Fatal(err)
	}
	if c, _ := q.Counts(); c.Pending != 0 || c.Leased != 0 || c.Done != 1 {
		t.Fatalf("counts after ack: %+v", c)
	}
	if !q.HasResult(job.ID()) {
		t.Fatal("HasResult after ack = false")
	}
	if ok, err := q.Enqueue(job); err != nil || ok {
		t.Fatalf("enqueue of done job must be a no-op: %v, %v", ok, err)
	}
	results, err := q.Results()
	if err != nil || len(results) != 1 || results[0].Worker != "w1" {
		t.Fatalf("results: %+v, %v", results, err)
	}
}

// TestClusterClaimExclusive races many claimers over a job set and checks
// every job is won exactly once: the rename-based claim is the mutual
// exclusion.
func TestClusterClaimExclusive(t *testing.T) {
	q := testQueue(t)
	spec := testSpec("a/1", "b/2", "c/3", "d/4", "e/5", "f/6", "g/7", "h/8")
	for _, j := range spec.Jobs() {
		if _, err := q.Enqueue(j); err != nil {
			t.Fatal(err)
		}
	}

	const claimers = 8
	var mu sync.Mutex
	won := map[string]int{}
	var wg sync.WaitGroup
	for i := 0; i < claimers; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				l, err := q.Claim(string(rune('A' + worker)))
				if err != nil {
					t.Error(err)
					return
				}
				if l == nil {
					return
				}
				mu.Lock()
				won[l.Job.ID()]++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if len(won) != len(spec.Workloads) {
		t.Fatalf("claimed %d distinct jobs, want %d", len(won), len(spec.Workloads))
	}
	for id, n := range won {
		if n != 1 {
			t.Errorf("job %s claimed %d times", id, n)
		}
	}
}

// TestClusterReclaimExpired checks the crash-recovery path: an expired
// lease goes back to pending and is claimable by another worker, while a
// heartbeating lease is left alone.
func TestClusterReclaimExpired(t *testing.T) {
	dir := t.TempDir()
	q := queueAt(t, dir)
	job := testSpec("crc32/small").Jobs()[0]
	if _, err := q.Enqueue(job); err != nil {
		t.Fatal(err)
	}
	lease, err := q.Claim("crasher")
	if err != nil || lease == nil {
		t.Fatalf("claim: %v, %v", lease, err)
	}

	// A fresh lease is not reclaimable.
	if n, err := q.Reclaim(time.Minute); err != nil || n != 0 {
		t.Fatalf("reclaimed fresh lease: %d, %v", n, err)
	}

	// A heartbeat keeps an old lease alive.
	backdate(t, dir, lease, 2*time.Minute)
	if err := lease.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	if n, err := q.Reclaim(time.Minute); err != nil || n != 0 {
		t.Fatalf("reclaimed heartbeating lease: %d, %v", n, err)
	}

	// Silence (the crash) expires it.
	backdate(t, dir, lease, 2*time.Minute)
	if n, err := q.Reclaim(time.Minute); err != nil || n != 1 {
		t.Fatalf("reclaim expired lease: %d, %v", n, err)
	}
	if c, _ := q.Counts(); c.Pending != 1 || c.Leased != 0 {
		t.Fatalf("counts after reclaim: %+v", c)
	}
	second, err := q.Claim("rescuer")
	if err != nil || second == nil || second.Job.ID() != job.ID() {
		t.Fatalf("re-claim after reclaim: %+v, %v", second, err)
	}
}

// TestClusterReclaimAfterAckCrash covers a worker dying between writing its
// result and removing its lease: reclaim must clean the lease up without
// re-pending an already-done job.
func TestClusterReclaimAfterAckCrash(t *testing.T) {
	dir := t.TempDir()
	q := queueAt(t, dir)
	job := testSpec("crc32/small").Jobs()[0]
	if _, err := q.Enqueue(job); err != nil {
		t.Fatal(err)
	}
	lease, err := q.Claim("w1")
	if err != nil || lease == nil {
		t.Fatal(err)
	}
	if err := q.WriteResult(Result{Job: job, Worker: "w1"}); err != nil {
		t.Fatal(err)
	}
	// Crash here: result written, lease never removed.
	backdate(t, dir, lease, 2*time.Minute)
	if n, err := q.Reclaim(time.Minute); err != nil || n != 0 {
		t.Fatalf("done job re-pended: %d, %v", n, err)
	}
	if c, _ := q.Counts(); c.Pending != 0 || c.Leased != 0 || c.Done != 1 {
		t.Fatalf("counts after cleanup: %+v", c)
	}
}

// TestClusterRelease checks the graceful-shutdown path: a released job is
// pending again immediately, without waiting out the TTL.
func TestClusterRelease(t *testing.T) {
	q := testQueue(t)
	job := testSpec("crc32/small").Jobs()[0]
	if _, err := q.Enqueue(job); err != nil {
		t.Fatal(err)
	}
	lease, err := q.Claim("w1")
	if err != nil || lease == nil {
		t.Fatal(err)
	}
	if err := lease.Release(); err != nil {
		t.Fatal(err)
	}
	if c, _ := q.Counts(); c.Pending != 1 || c.Leased != 0 {
		t.Fatalf("counts after release: %+v", c)
	}
}

// TestClusterJobIdentity pins the ID scheme's properties: stable for equal
// jobs, distinct across workloads and across dispatch specs.
func TestClusterJobIdentity(t *testing.T) {
	a := testSpec("crc32/small", "dijkstra/small")
	jobs := a.Jobs()
	if jobs[0].ID() != a.Jobs()[0].ID() {
		t.Error("job ID not stable")
	}
	if jobs[0].ID() == jobs[1].ID() {
		t.Error("distinct workloads share a job ID")
	}
	b := testSpec("crc32/small", "dijkstra/small")
	b.Seed = 2
	if jobs[0].ID() == b.Jobs()[0].ID() {
		t.Error("distinct specs share a job ID")
	}
	if len(jobs[0].Points()) != 1 {
		t.Errorf("points: %v", jobs[0].Points())
	}
	if sanitizeWorker("host/1@x") != "host-1-x" {
		t.Errorf("sanitizeWorker: %q", sanitizeWorker("host/1@x"))
	}
}

// TestClusterManifestSchemaMismatch checks a manifest from a different
// schema version is an error, not a silent mismatch.
func TestClusterManifestSchemaMismatch(t *testing.T) {
	q := testQueue(t)
	if err := q.WriteManifest(&Manifest{Version: SchemaVersion + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Manifest(); err == nil {
		t.Fatal("mismatched manifest schema must be an error")
	}
}
