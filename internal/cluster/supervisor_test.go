package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeJobs writes a manifest promising total jobs and enqueues them. The
// jobs carry synthetic workload names; they are only meaningful to tests
// driving execution through the exec hook.
func fakeJobs(t *testing.T, q *Queue, total int) []Job {
	t.Helper()
	spec := testSpec("crc32/small")
	if err := q.WriteManifest(&Manifest{Version: SchemaVersion, Spec: spec,
		Canonical: spec.Canonical(), Total: total}); err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, total)
	for i := range jobs {
		jobs[i] = Job{Workload: fmt.Sprintf("fake/job%d", i), Dispatch: "fake"}
		if ok, err := q.Enqueue(jobs[i]); err != nil || !ok {
			t.Fatalf("enqueue %d: ok=%v err=%v", i, ok, err)
		}
	}
	return jobs
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestWorkerPanicReleasesLease pins the satellite fix: a panic inside job
// execution must release the lease for an immediate retry — with an
// hour-long TTL, convergence within the test timeout is only possible if
// the release happens eagerly rather than by expiry. The second panic of
// the same job is acked as a failure so the queue still converges.
func TestWorkerPanicReleasesLease(t *testing.T) {
	q := testQueue(t)
	fakeJobs(t, q, 1)

	var calls atomic.Int64
	w := &Worker{
		Queue: q, ID: "panicky", TTL: time.Hour, Poll: 5 * time.Millisecond,
		exec: func(ctx context.Context, j Job) error {
			calls.Add(1)
			panic("synthetic fault in job execution")
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("run: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("job executed %d times, want 2 (retry after first panic)", calls.Load())
	}
	if m := w.Metrics.Snapshot(); m.Panics != 2 || m.JobsOK != 0 || m.JobsFailed != 1 {
		t.Fatalf("metrics = %+v, want 2 panics, 1 acked job, 1 failed", m)
	}
	c, err := q.Counts()
	if err != nil || c.Leased != 0 || c.Pending != 0 || c.Done != 1 {
		t.Fatalf("queue after panics: %+v, %v; want everything in done", c, err)
	}
	results, err := q.Results()
	if err != nil || len(results) != 1 || !strings.Contains(results[0].Err, "panicked") {
		t.Fatalf("results = %+v, %v; want one failure recording the panic", results, err)
	}
}

// TestSupervisorPanicTwiceAcksFailed is the embedded pool's counterpart of
// TestWorkerPanicReleasesLease: a job that always panics runs exactly
// twice across the pool — the first panic releases the lease for an
// immediate retry (an hour-long TTL rules out reclaim by expiry), the
// second acks the job as failed — and the node counts both panics.
func TestSupervisorPanicTwiceAcksFailed(t *testing.T) {
	q := testQueue(t)
	fakeJobs(t, q, 1)

	var calls atomic.Int64
	sup, err := NewSupervisor(q, SupervisorOptions{
		Node: "test", Min: 2, Max: 2, TTL: time.Hour,
		Poll: 5 * time.Millisecond, Interval: 10 * time.Millisecond,
		exec: func(ctx context.Context, j Job) error {
			calls.Add(1)
			panic("synthetic fault in job execution")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- sup.Run(ctx) }()

	waitFor(t, 30*time.Second, "panicking job to be acked", func() bool {
		c, err := q.Counts()
		return err == nil && c.Done == 1
	})
	cancel()
	<-runDone
	if n := calls.Load(); n != 2 {
		t.Fatalf("job executed %d times, want 2 (retry after first panic)", n)
	}
	results, err := q.Results()
	if err != nil || len(results) != 1 || !strings.Contains(results[0].Err, "panicked") {
		t.Fatalf("results = %+v, %v; want one failure recording the panic", results, err)
	}
	if st := sup.Status().Jobs; st.Panics != 2 || st.JobsOK != 0 || st.JobsFailed != 1 {
		t.Fatalf("status = %+v, want 2 panics, 1 acked job, 1 failed", st)
	}
}

// TestSupervisorGracefulShutdownReleasesLease is the regression test for
// the drain guarantee: canceling the supervisor mid-job must release the
// held lease back to pending, never abandon it in the leased state.
func TestSupervisorGracefulShutdownReleasesLease(t *testing.T) {
	q := testQueue(t)
	fakeJobs(t, q, 1)

	started := make(chan struct{})
	var once sync.Once
	sup, err := NewSupervisor(q, SupervisorOptions{
		Node: "test", Min: 1, Max: 1,
		Poll: 5 * time.Millisecond, Interval: 10 * time.Millisecond,
		exec: func(ctx context.Context, j Job) error {
			once.Do(func() { close(started) })
			<-ctx.Done() // hold the job until shutdown
			return ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- sup.Run(ctx) }()

	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never claimed the job")
	}
	cancel()
	select {
	case err := <-runDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("supervisor did not drain after cancel")
	}
	c, err := q.Counts()
	if err != nil || c.Leased != 0 || c.Pending != 1 || c.Done != 0 {
		t.Fatalf("queue after shutdown: %+v, %v; want the job released to pending", c, err)
	}
}

// TestSupervisorAutoscaleRace exercises concurrent scale-up/scale-down
// while jobs drain, with Status and Enqueue churning from other
// goroutines — the -race target for the supervisor paths. The pool must
// grow beyond Min under backlog, complete every job exactly once, and
// shrink back to Min once idle.
func TestSupervisorAutoscaleRace(t *testing.T) {
	q := testQueue(t)
	const total = 12
	jobs := fakeJobs(t, q, total)

	var executions atomic.Int64
	sup, err := NewSupervisor(q, SupervisorOptions{
		Node: "test", Min: 1, Max: 4,
		Poll: 2 * time.Millisecond, Interval: 10 * time.Millisecond,
		TTL: time.Hour, // reclaim must never fire: every execution is deliberate
		exec: func(ctx context.Context, j Job) error {
			executions.Add(1)
			time.Sleep(15 * time.Millisecond)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- sup.Run(ctx) }()

	// Churn the observation and enqueue paths while the pool scales.
	stopChurn := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(2)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stopChurn:
				return
			default:
				_ = sup.Status()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	go func() {
		defer churn.Done()
		for _, j := range jobs { // duplicate enqueues must all be rejected
			q.Enqueue(j)
			time.Sleep(time.Millisecond)
		}
		close(stopChurn)
	}()

	waitFor(t, 30*time.Second, "queue to drain", func() bool {
		c, err := q.Counts()
		return err == nil && c.Done == total
	})
	churn.Wait()

	if n := executions.Load(); n != total {
		t.Fatalf("jobs executed %d times, want exactly %d (no loss, no duplication)", n, total)
	}
	st := sup.Status()
	if st.Jobs.JobsOK != total || st.Jobs.JobsFailed != 0 {
		t.Fatalf("status counters: %+v", st)
	}
	scaledUp := false
	for _, d := range st.Decisions {
		if d.Action == "scale-up" && d.To > 1 {
			scaledUp = true
		}
	}
	if !scaledUp {
		t.Fatalf("pool never scaled up under a %d-job backlog: %+v", total, st.Decisions)
	}

	// Idle hysteresis: the pool must shrink back to Min.
	waitFor(t, 30*time.Second, "pool to shrink to Min", func() bool {
		return sup.Status().Workers == 1
	})
	cancel()
	select {
	case <-runDone:
	case <-time.After(10 * time.Second):
		t.Fatal("supervisor did not exit after cancel")
	}
}

// TestSupervisorJobTimeout: a hung job is cut off at JobTimeout and acked
// as failed, so one stuck job cannot wedge the node or the queue.
func TestSupervisorJobTimeout(t *testing.T) {
	q := testQueue(t)
	fakeJobs(t, q, 1)

	sup, err := NewSupervisor(q, SupervisorOptions{
		Node: "test", Min: 1, Max: 1,
		Poll: 5 * time.Millisecond, Interval: 10 * time.Millisecond,
		JobTimeout: 30 * time.Millisecond,
		exec: func(ctx context.Context, j Job) error {
			<-ctx.Done() // hang until the job deadline fires
			return ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- sup.Run(ctx) }()

	waitFor(t, 10*time.Second, "timed-out job to be acked", func() bool {
		c, err := q.Counts()
		return err == nil && c.Done == 1
	})
	results, err := q.Results()
	if err != nil || len(results) != 1 || !strings.Contains(results[0].Err, "job timeout") {
		t.Fatalf("results = %+v, %v; want one job-timeout failure", results, err)
	}
	cancel()
	<-runDone
}
