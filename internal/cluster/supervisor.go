package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

// SupervisorOptions configures an embedded worker pool.
type SupervisorOptions struct {
	// Node names this supervisor; worker IDs are derived from it
	// ("<node>-w3"), so lease files and results identify which process ran
	// a job.
	Node string
	// Min and Max bound the pool size the autoscaler moves between.
	// Defaults: Min 1, Max max(Min, 4).
	Min, Max int
	// TTL is the lease expiry enforced on (and heartbeat budget granted
	// to) every worker (0 = DefaultLeaseTTL).
	TTL time.Duration
	// Poll is each worker's idle polling interval (0 = DefaultPoll).
	Poll time.Duration
	// Interval is the coordinator tick: lease reclaim plus one autoscale
	// decision per tick (0 = 1s).
	Interval time.Duration
	// JobTimeout bounds one job's execution; an overrunning job is acked
	// as failed so the queue converges (0 = no bound).
	JobTimeout time.Duration
	// PipelineWorkers bounds each job's stage fan-out pool
	// (0 = GOMAXPROCS).
	PipelineWorkers int
	// OnEvent, when non-nil, observes every supervisor event — scaling
	// decisions, reclaims, job completions, shutdown — for structured
	// logging. Called from supervisor goroutines; must be safe for
	// concurrent use (telemetry.Sink gives a ready-made serialized writer).
	OnEvent func(Event)
	// Telemetry, when non-nil, receives the node's job-lifecycle metrics
	// and pool gauges (synth_cluster_*), and is plumbed into every
	// per-dispatch pipeline the pool builds so stage metrics land in the
	// same registry.
	Telemetry *telemetry.Registry

	// exec, when non-nil, replaces real job execution (test hook; see
	// Worker.exec).
	exec func(context.Context, Job) error
}

// Event is one structured supervisor occurrence, emitted through
// SupervisorOptions.OnEvent and rendered by `synth serve` as JSON log
// lines.
type Event struct {
	// Time is when the event happened.
	Time time.Time `json:"time"`
	// Type is the event kind: "scale-up", "scale-down", "reclaim",
	// "job-done", "job-failed", "job-timeout", "panic", "release",
	// "shutdown".
	Type string `json:"type"`
	// Worker is the worker ID involved, when any.
	Worker string `json:"worker,omitempty"`
	// Job is the job ID involved, when any.
	Job string `json:"job,omitempty"`
	// Detail is a human-readable elaboration.
	Detail string `json:"detail,omitempty"`
}

// Decision records one autoscaler verdict with the queue observation that
// produced it, so /api/v1/cluster/status can explain the pool's size.
type Decision struct {
	// Time is when the decision was taken.
	Time time.Time `json:"time"`
	// Action is "scale-up" or "scale-down".
	Action string `json:"action"`
	// From and To are the pool sizes before and after.
	From int `json:"from"`
	To   int `json:"to"`
	// Pending and Busy are the observations the decision was based on.
	Pending int `json:"pending"`
	Busy    int `json:"busy"`
	// Reason is a human-readable justification.
	Reason string `json:"reason"`
}

// SupervisorStatus is a point-in-time snapshot of an embedded pool for the
// status endpoint.
type SupervisorStatus struct {
	// Node is the supervisor's node name.
	Node string `json:"node"`
	// Workers is the current pool size, Busy how many are executing a job.
	Workers int `json:"workers"`
	Busy    int `json:"busy"`
	// Min and Max are the autoscaler bounds.
	Min int `json:"min"`
	Max int `json:"max"`
	// Jobs is the pool's job-lifecycle counters since the supervisor
	// started (claims, acks by result, ack retries, reclaimed leases,
	// recovered panics, timeouts), read once from Metrics.
	Jobs MetricsSnapshot `json:"jobs"`
	// Decisions is the most recent autoscaler history, newest last.
	Decisions []Decision `json:"decisions,omitempty"`
}

// decisionHistory bounds the decision ring kept for the status endpoint.
const decisionHistory = 16

// idleTicksBeforeShrink is the autoscaler's scale-down hysteresis: the
// pool must be fully idle for this many consecutive coordinator ticks
// before one worker is retired, so a bursty queue does not thrash the pool.
const idleTicksBeforeShrink = 3

// Supervisor runs an embedded, self-scaling worker pool inside a process —
// `synth serve`'s node mode. N goroutine workers drain the cluster queue
// with panic recovery, per-job timeout, and ack retry; a coordinator loop
// reclaims expired leases on a ticker and autoscales the pool between Min
// and Max from observed queue depth. On context cancellation the pool
// drains gracefully: idle workers exit immediately, busy workers release
// their leases back to pending, and Run returns only when every worker is
// gone — a supervised node never abandons a leased job.
type Supervisor struct {
	q       *Queue
	opts    SupervisorOptions
	metrics *Metrics

	mu        sync.Mutex
	runCtx    context.Context // the Run context; mid-run spawns inherit it
	workers   map[string]*supWorker
	seq       int
	decisions []Decision
	pipes     map[string]dispatchPipe
	idleTicks int
	running   bool

	wg   sync.WaitGroup
	busy atomic.Int64
	// panicked is the node's one panic record, shared by every pool
	// worker (see Worker.step).
	panicked sync.Map
}

// dispatchPipe is one dispatch's spec, read from the manifest, and the
// pipeline built for it.
type dispatchPipe struct {
	spec Spec
	pipe *pipeline.Pipeline
}

// supWorker is the supervisor's handle on one pool goroutine. Closing stop
// asks the worker to exit at its next idle moment (a scale-down lets the
// current job finish); context cancellation preempts a running job.
type supWorker struct {
	id   string
	stop chan struct{}
}

// NewSupervisor builds a supervisor over q. Options are defaulted, not
// validated to death: Min < 1 becomes 1, Max < Min becomes max(Min, 4).
func NewSupervisor(q *Queue, opts SupervisorOptions) (*Supervisor, error) {
	if q == nil {
		return nil, fmt.Errorf("cluster: supervisor: nil queue")
	}
	if opts.Node == "" {
		opts.Node = "node"
	}
	if opts.Min < 1 {
		opts.Min = 1
	}
	if opts.Max < opts.Min {
		opts.Max = opts.Min
		if opts.Max < 4 {
			opts.Max = 4
		}
	}
	if opts.TTL <= 0 {
		opts.TTL = DefaultLeaseTTL
	}
	if opts.Poll <= 0 {
		opts.Poll = DefaultPoll
	}
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	s := &Supervisor{
		q:       q,
		opts:    opts,
		metrics: NewMetrics(opts.Telemetry),
		workers: make(map[string]*supWorker),
		pipes:   make(map[string]dispatchPipe),
	}
	if opts.Telemetry != nil {
		opts.Telemetry.GaugeFunc("synth_cluster_pool_workers",
			"Current size of the embedded worker pool.", func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				return float64(len(s.workers))
			})
		opts.Telemetry.GaugeFunc("synth_cluster_pool_busy",
			"Pool workers currently executing a job.", func() float64 {
				return float64(s.busy.Load())
			})
	}
	return s, nil
}

// event emits e through OnEvent (never while holding the lock).
func (s *Supervisor) event(typ, worker, job, detail string) {
	if s.opts.OnEvent == nil {
		return
	}
	s.opts.OnEvent(Event{Time: time.Now(), Type: typ, Worker: worker, Job: job, Detail: detail})
}

// Run starts Min workers and the coordinator loop, and blocks until ctx is
// canceled and the pool has fully drained. It returns ctx's error.
func (s *Supervisor) Run(ctx context.Context) error {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return fmt.Errorf("cluster: supervisor already running")
	}
	s.running = true
	s.runCtx = ctx
	for i := 0; i < s.opts.Min; i++ {
		s.spawnLocked(ctx)
	}
	s.mu.Unlock()

	t := time.NewTicker(s.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			s.wg.Wait() // workers observe ctx themselves
			s.mu.Lock()
			s.workers = make(map[string]*supWorker)
			s.running = false
			s.mu.Unlock()
			s.event("shutdown", "", "", "pool drained")
			return ctx.Err()
		case <-t.C:
			s.tick()
		}
	}
}

// spawnLocked starts one worker goroutine. Caller holds s.mu.
func (s *Supervisor) spawnLocked(ctx context.Context) string {
	s.seq++
	sw := &supWorker{
		id:   fmt.Sprintf("%s-w%d", s.opts.Node, s.seq),
		stop: make(chan struct{}),
	}
	s.workers[sw.id] = sw
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.workerLoop(ctx, sw)
	}()
	return sw.id
}

// tick is one coordinator pass: reclaim expired leases, then decide
// whether the pool should grow or shrink.
func (s *Supervisor) tick() {
	if n, err := s.q.Reclaim(s.opts.TTL); err == nil && n > 0 {
		s.metrics.Reclaimed(n)
		s.event("reclaim", "", "", fmt.Sprintf("re-pended %d expired lease(s)", n))
	}
	c, err := s.q.Counts()
	if err != nil {
		return // a flaking store fails a tick, not the supervisor
	}
	busy := int(s.busy.Load())

	s.mu.Lock()
	cur := len(s.workers)
	var d *Decision
	switch {
	case c.Pending > 0 && cur < s.opts.Max:
		add := c.Pending
		if add > s.opts.Max-cur {
			add = s.opts.Max - cur
		}
		ctx := s.runCtx
		for i := 0; i < add; i++ {
			s.spawnLocked(ctx)
		}
		s.idleTicks = 0
		d = &Decision{Time: time.Now(), Action: "scale-up", From: cur, To: cur + add,
			Pending: c.Pending, Busy: busy,
			Reason: fmt.Sprintf("%d pending job(s) with %d worker(s)", c.Pending, cur)}
	case c.Pending == 0 && busy == 0 && cur > s.opts.Min:
		s.idleTicks++
		if s.idleTicks >= idleTicksBeforeShrink {
			s.idleTicks = 0
			// Retire one worker per decision; it exits at its next idle
			// check, which is immediate since the pool is idle.
			for id, sw := range s.workers {
				close(sw.stop)
				delete(s.workers, id)
				break
			}
			d = &Decision{Time: time.Now(), Action: "scale-down", From: cur, To: cur - 1,
				Pending: 0, Busy: 0,
				Reason: fmt.Sprintf("idle for %d tick(s)", idleTicksBeforeShrink)}
		}
	default:
		s.idleTicks = 0
	}
	if d != nil {
		s.decisions = append(s.decisions, *d)
		if len(s.decisions) > decisionHistory {
			s.decisions = s.decisions[len(s.decisions)-decisionHistory:]
		}
	}
	s.mu.Unlock()
	if d != nil {
		s.event(d.Action, "", "", d.Reason)
	}
}

// workerLoop is one pool goroutine: claim, step, repeat, until the context
// is canceled or the worker is retired. It never exits on queue
// convergence — an embedded node idles, awaiting the next dispatch — and
// it survives a failed ack: the step released the lease, and another
// worker or a later claim retries the job. Each job runs under the
// per-job timeout, so an overrunning job is acked as failed; on
// parent-context cancellation the step releases the lease, so graceful
// shutdown never strands a leased job.
func (s *Supervisor) workerLoop(ctx context.Context, sw *supWorker) {
	w := &Worker{Queue: s.q, ID: sw.id, TTL: s.opts.TTL, Metrics: s.metrics,
		exec: s.opts.exec, panicked: &s.panicked,
		event: func(typ, job, detail string) { s.event(typ, sw.id, job, detail) },
		OnJob: func(r Result) {
			typ := "job-done"
			if r.Err != "" {
				typ = "job-failed"
			}
			s.event(typ, sw.id, r.Job.ID(), fmt.Sprintf("%s in %dms: %s", r.Job.Workload, r.Millis, r.Err))
		},
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-sw.stop:
			return
		default:
		}
		lease, err := w.claim()
		if err != nil || lease == nil {
			select {
			case <-ctx.Done():
				return
			case <-sw.stop:
				return
			case <-time.After(s.opts.Poll):
			}
			continue
		}
		if w.Pipe, w.Spec, err = s.pipelineFor(lease.Job.Dispatch); err != nil {
			// The job belongs to a dispatch this node cannot reconstruct
			// (manifest unreadable or replaced mid-flight). Hand it back and
			// let a reclaim or a correctly-configured worker take it.
			lease.Release()
			s.event("release", sw.id, lease.Job.ID(), err.Error())
			time.Sleep(s.opts.Poll) // avoid hot-looping on the same job
			continue
		}
		jobCtx, cancel := ctx, context.CancelFunc(func() {})
		if d := s.opts.JobTimeout; d > 0 {
			jobCtx, cancel = context.WithTimeoutCause(ctx, d, fmt.Errorf("job timeout after %s", d))
		}
		s.busy.Add(1)
		_ = w.step(ctx, jobCtx, lease) // reported as an event; ctx is checked above
		s.busy.Add(-1)
		cancel()
	}
}

// pipelineFor returns the spec and pipeline for one dispatch digest,
// read from the queue's manifest and cached per digest — a re-dispatch
// under new options gets a fresh pipeline whose artifact keys match, while
// jobs of one dispatch share cache state across the whole pool.
func (s *Supervisor) pipelineFor(digest string) (*pipeline.Pipeline, Spec, error) {
	if s.opts.exec != nil {
		return nil, Spec{}, nil // scripted execution needs no pipeline
	}
	s.mu.Lock()
	if dp, ok := s.pipes[digest]; ok {
		s.mu.Unlock()
		return dp.pipe, dp.spec, nil
	}
	s.mu.Unlock()

	m, err := s.q.Manifest()
	if err != nil {
		return nil, Spec{}, err
	}
	if m == nil {
		return nil, Spec{}, fmt.Errorf("cluster: job %s has no manifest", digest)
	}
	if m.Spec.Digest() != digest {
		return nil, Spec{}, fmt.Errorf("cluster: job belongs to dispatch %s but the manifest holds %s", digest, m.Spec.Digest())
	}
	dp := dispatchPipe{spec: m.Spec, pipe: pipeline.New(pipeline.Options{
		Workers: s.opts.PipelineWorkers,
		Seed:    m.Spec.Seed,
		Store:   s.q.Store(),
		Metrics: s.opts.Telemetry,
	})}

	s.mu.Lock()
	if cached, ok := s.pipes[digest]; ok { // lost a benign build race
		dp = cached
	} else {
		s.pipes[digest] = dp
	}
	s.mu.Unlock()
	return dp.pipe, dp.spec, nil
}

// Metrics returns the supervisor's job-lifecycle counters, shared by
// its pool workers; Status and the status endpoint read them.
func (s *Supervisor) Metrics() *Metrics { return s.metrics }

// Status returns a point-in-time snapshot for the status endpoint.
func (s *Supervisor) Status() SupervisorStatus {
	s.mu.Lock()
	st := SupervisorStatus{
		Node:      s.opts.Node,
		Workers:   len(s.workers),
		Min:       s.opts.Min,
		Max:       s.opts.Max,
		Decisions: append([]Decision(nil), s.decisions...),
	}
	s.mu.Unlock()
	st.Busy = int(s.busy.Load())
	st.Jobs = s.metrics.Snapshot()
	return st
}
