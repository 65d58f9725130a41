package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/compiler"
	"repro/internal/generate"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// Worker is one lease-execute-ack participant. Any number of workers (in
// one process or many) may drain one queue; the store they share guarantees
// a re-executed job recomputes nothing that was already acked.
type Worker struct {
	// Queue is the job queue to drain.
	Queue *Queue
	// Pipe executes jobs. It must be built with the manifest's Spec.Seed
	// and backed by the queue's store, or the worker's artifacts would not
	// land where the dispatch's dedup looks.
	Pipe *pipeline.Pipeline
	// ID names the worker in lease files and results.
	ID string
	// Dispatch, when non-empty, is the Spec.Digest of the dispatch the
	// pipeline was built for. A claimed job carrying a different dispatch
	// digest — the queue was reset and re-dispatched under this worker —
	// is released and aborts the run, since executing it with the old
	// pipeline options would ack jobs whose artifacts were never computed
	// under the new spec's keys.
	Dispatch string
	// TTL is the lease expiry the worker enforces on others and the
	// heartbeat budget it must stay within itself (0 = DefaultLeaseTTL).
	TTL time.Duration
	// Poll is the idle polling interval (0 = DefaultPoll).
	Poll time.Duration
	// OnJob, when non-nil, observes every acked result (for CLI logging).
	OnJob func(Result)
	// Metrics receives job-lifecycle telemetry (claims, acks, ack
	// retries, reclaims, panics, job durations); Run allocates a
	// registry-less set when it is nil.
	Metrics *Metrics

	// exec, when non-nil, replaces the real job execution — a test hook
	// so supervisor and chaos tests can script job behavior (block, fail,
	// panic) without running the pipeline.
	exec func(context.Context, Job) error
	// panicked holds the IDs of jobs whose execution has panicked once.
	// Run allocates one per worker; a supervisor shares its own with every
	// pool worker, so a job's second panic anywhere on the node is final.
	panicked *sync.Map
	// event, when non-nil, receives lifecycle events (set by the pool).
	event func(typ, job, detail string)
}

// Run drains the queue: claim a job, step it through execute and ack,
// repeat. When nothing is pending it reclaims expired leases (recovering
// crashed siblings' jobs) and exits once Queue.drained reports the queue
// converged. On cancellation a held lease is released back to pending so
// the job is immediately re-claimable. A Worker without Metrics gets a
// registry-less set, so its job counts are readable after Run returns.
func (w *Worker) Run(ctx context.Context) error {
	if w.Metrics == nil {
		w.Metrics = NewMetrics(nil)
	}
	if w.panicked == nil {
		w.panicked = new(sync.Map)
	}
	ttl := durationOr(w.TTL, DefaultLeaseTTL)
	total := -1
	if m, err := w.Queue.Manifest(); err != nil {
		return err
	} else if m != nil {
		total = m.Total
	}
	var stalledSince time.Time
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, err := w.claim()
		if err != nil {
			return err
		}
		if lease == nil {
			if n, err := w.Queue.Reclaim(ttl); err != nil {
				return err
			} else if n > 0 {
				w.Metrics.Reclaimed(n)
				continue // recovered jobs are pending again: go claim
			}
			if _, done, err := w.Queue.drained(total, ttl, &stalledSince); err != nil || done {
				return err
			}
			select { // work is in flight elsewhere: wait for it or for a crash
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(durationOr(w.Poll, DefaultPoll)):
			}
			continue
		}
		stalledSince = time.Time{}
		if w.Dispatch != "" && lease.Job.Dispatch != w.Dispatch {
			lease.Release()
			return fmt.Errorf("cluster: queue was re-dispatched (job %s belongs to dispatch %s, this worker was built for %s); restart the worker",
				lease.Job.Workload, lease.Job.Dispatch, w.Dispatch)
		}
		if err := w.step(ctx, ctx, lease); err != nil {
			return err
		}
	}
}

// claim leases one pending job (nil when none is pending) and counts it.
func (w *Worker) claim() (*Lease, error) {
	lease, err := w.Queue.Claim(w.ID)
	if lease != nil {
		w.Metrics.Claim()
	}
	return lease, err
}

// step is everything that happens to one claimed job, for `synth work`
// and the embedded pool alike. A stale pending duplicate of a done job is
// dropped unexecuted. Otherwise the job executes under jobCtx while the
// lease heartbeats. The first panic of a job releases its lease for an
// immediate retry — by us or any other node — in case the panic was
// transient here; a second panic is deterministic, so the job is acked as
// failed and the queue converges instead of bouncing it between workers
// forever. A job that outruns jobCtx (the pool's per-job timeout) is acked
// as failed too. step returns an error only when ctx was canceled
// mid-job or the ack failed for good; either way the lease was released.
func (w *Worker) step(ctx, jobCtx context.Context, lease *Lease) error {
	id := lease.Job.ID()
	if w.Queue.HasResult(id) {
		lease.Drop() // stale pending duplicate from a reclaim race
		return nil
	}
	res, panicked, err := w.execute(jobCtx, lease)
	if err != nil {
		if ctx.Err() != nil {
			lease.Release() // hand the job back, never abandon it mid-lease
			w.emit("release", id, "shutdown mid-job")
			return ctx.Err()
		}
		res.Err = fmt.Sprintf("%v: %v", context.Cause(jobCtx), err)
		w.Metrics.Timeout()
		w.emit("job-timeout", id, res.Err)
	}
	if panicked {
		w.Metrics.Panic()
		if _, again := w.panicked.LoadOrStore(id, true); !again {
			lease.Release()
			w.emit("panic", id, res.Err+" (released for retry)")
			return nil
		}
		w.emit("panic", id, res.Err+" (second panic, acking as failed)")
	}
	if err := w.ack(lease, res); err != nil {
		w.emit("job-failed", id, err.Error())
		return err
	}
	if w.OnJob != nil {
		w.OnJob(res)
	}
	return nil
}

// emit reports a lifecycle event to the pool's supervisor, if any.
func (w *Worker) emit(typ, job, detail string) {
	if w.event != nil {
		w.event(typ, job, detail)
	}
}

// Ack retry policy: transient store errors (an HTTP backend riding out a
// blip, a full-disk hiccup) are retried with exponential backoff before
// the worker gives the job back. Variables so tests can compress time.
var (
	ackAttempts = 6
	ackBackoff  = 50 * time.Millisecond
)

// ack records the result, retrying transient store failures with
// exponential backoff. If the store stays broken the lease is released —
// the job returns to pending for a healthier node — and the error is
// returned to stop this worker.
func (w *Worker) ack(lease *Lease, res Result) error {
	var err error
	delay := ackBackoff
	for attempt := 0; attempt < ackAttempts; attempt++ {
		if err = lease.Ack(res); err == nil {
			w.Metrics.Acked(time.Duration(res.Millis)*time.Millisecond, res.Err != "")
			return nil
		}
		w.Metrics.AckRetry()
		time.Sleep(delay)
		delay *= 2
	}
	lease.Release()
	return fmt.Errorf("cluster: ack failed after %d attempts: %w", ackAttempts, err)
}

// execute runs one job's (ISA, level) grid through the pipeline,
// heartbeating the lease in the background. Job failures are recorded in
// the Result, not returned: only cancellation of ctx is. The second return
// reports that the job's execution panicked (recovered into the Result),
// which step turns into release-and-retry instead of an ack.
func (w *Worker) execute(ctx context.Context, lease *Lease) (Result, bool, error) {
	res := Result{Job: lease.Job, Worker: w.ID}

	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(durationOr(w.TTL, DefaultLeaseTTL) / 3)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				lease.Heartbeat() // a lost lease only means a benign redo
			}
		}
	}()
	defer func() { stopHB(); <-hbDone }()

	start := time.Now()
	var before pipeline.CacheStats
	if w.Pipe != nil { // nil only under the exec test hook
		before = w.Pipe.CacheStats()
	}
	err := w.runRecovered(ctx, lease.Job)
	if w.Pipe != nil {
		res.Stats = w.Pipe.CacheStats().Sub(before)
	}
	res.Millis = time.Since(start).Milliseconds()
	var pe *pipeline.PanicError
	panicked := errors.As(err, &pe)
	if err != nil {
		if ctx.Err() != nil && !panicked {
			return res, false, ctx.Err()
		}
		res.Err = err.Error()
	}
	return res, panicked, nil
}

// runRecovered executes one job, converting a panic on the calling
// goroutine into a *pipeline.PanicError. Panics inside pipeline stage
// fan-out arrive already converted (pipeline.Map recovers its pool
// goroutines — a recover here could not reach those); this guards the
// worker's own frame so no panic path leaks the lease until TTL expiry.
func (w *Worker) runRecovered(ctx context.Context, j Job) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &pipeline.PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if w.exec != nil {
		return w.exec(ctx, j)
	}
	return w.runJob(ctx, j)
}

// runJob fans the job's grid points out on the pipeline's worker pool.
// Generate jobs dispatch before the workload lookup: their Workload field
// is a synthetic point label ("gen[i]"), not a registry name.
func (w *Worker) runJob(ctx context.Context, j Job) error {
	if j.Kind == KindGenerate {
		if j.Gen == nil {
			return fmt.Errorf("cluster: generate job %s carries no spec", j.Workload)
		}
		return generate.RealizePoint(ctx, w.Pipe, j.Gen, j.GenIndex)
	}
	wl := workloads.ByName(j.Workload)
	if wl == nil {
		return fmt.Errorf("cluster: unknown workload %q", j.Workload)
	}
	if j.Kind == KindExplore {
		return w.runExploreJob(ctx, wl, j)
	}
	if j.Kind != "" {
		return fmt.Errorf("cluster: unknown job kind %q (mixed binaries?)", j.Kind)
	}
	return pipeline.ForEach(ctx, w.Pipe, j.Points(), func(ctx context.Context, pt Point) error {
		target := isa.ByName(pt.ISA)
		if target == nil {
			return fmt.Errorf("cluster: unknown ISA %q", pt.ISA)
		}
		if pt.Level < 0 || pt.Level >= len(compiler.Levels) {
			return fmt.Errorf("cluster: level %d out of range", pt.Level)
		}
		_, err := w.Pipe.PairAt(ctx, wl, target, compiler.Levels[pt.Level])
		return err
	})
}

// runExploreJob executes one exploration shard: time the workload's
// original and clone, at every level, on every machine configuration
// through the pipeline's cached Simulate stage — the same
// pipeline.SimulateColumns call explore.Run makes. Every
// simulation (and the compiles, profile, and synthesis underneath) lands
// in the shared store, so the dispatcher can aggregate the sweep report
// warm.
func (w *Worker) runExploreJob(ctx context.Context, wl *workloads.Workload, j Job) error {
	var cols []pipeline.Column
	for _, l := range j.Levels {
		if l < 0 || l >= len(compiler.Levels) {
			return fmt.Errorf("cluster: level %d out of range", l)
		}
		cols = append(cols,
			pipeline.Column{Workload: wl, Level: compiler.Levels[l]},
			pipeline.Column{Workload: wl, Level: compiler.Levels[l], Clone: true})
	}
	_, err := w.Pipe.SimulateColumns(ctx, cols, j.Sims, j.SimMaxInstrs)
	return err
}
