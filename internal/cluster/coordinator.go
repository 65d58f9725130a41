package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/compiler"
	"repro/internal/generate"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// DispatchOptions tunes a Dispatch call.
type DispatchOptions struct {
	// Force re-enqueues every job even if its artifacts are already stored
	// or it has already completed. The store still serves warm artifacts,
	// so forced jobs recompute nothing — CI's warm verification pass uses
	// exactly this to assert zero recomputation through the worker path.
	Force bool
}

// DispatchOutcome summarizes what a Dispatch call did with each job.
type DispatchOutcome struct {
	// Total is the number of jobs the spec enumerated.
	Total int
	// Enqueued jobs await a worker.
	Enqueued int
	// Deduped jobs were satisfied entirely from the store — every artifact
	// the job would compute already exists — and went straight to done.
	Deduped int
	// AlreadyDone jobs had a recorded result from an earlier identical
	// dispatch; AlreadyQueued jobs were still pending or leased.
	AlreadyDone   int
	AlreadyQueued int
}

// Dispatch validates spec, installs it as the queue's manifest, and
// enqueues its jobs. Jobs whose artifacts all exist in the store are
// deduplicated: they go straight to the done state (marked Deduped) without
// a worker ever seeing them, using the same pipeline.Key.Digest addressing
// the cache tiers use. Re-dispatching an identical spec is an idempotent
// top-up; dispatching a different spec over a queue with unfinished jobs is
// an error, and over a drained queue resets it.
func Dispatch(ctx context.Context, q *Queue, p *pipeline.Pipeline, spec Spec, opts DispatchOptions) (DispatchOutcome, error) {
	var out DispatchOutcome
	if err := validateSpec(spec); err != nil {
		return out, err
	}
	jobs := spec.Jobs()
	out.Total = len(jobs)

	existing, err := q.Manifest()
	if err != nil {
		return out, err
	}
	if existing != nil && existing.Canonical != spec.Canonical() {
		// Count only jobs that are genuinely still in flight: a stale
		// pending or leased copy of a done job (an ack that raced a
		// reclaim) must not hold the queue hostage forever.
		active, err := q.activeJobs()
		if err != nil {
			return out, err
		}
		if active > 0 {
			return out, fmt.Errorf("cluster: queue is busy with a different dispatch (%d jobs in flight); drain it or use a fresh store", active)
		}
		if err := q.Reset(); err != nil {
			return out, err
		}
	}
	if err := q.WriteManifest(&Manifest{
		Version:   SchemaVersion,
		Spec:      spec,
		Canonical: spec.Canonical(),
	}); err != nil {
		return out, err
	}

	for _, j := range jobs {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		if opts.Force {
			q.be.Remove(q.doneName(j.ID()))
		} else {
			if q.HasResult(j.ID()) {
				// Clear any stale pending copy (left by an earlier
				// no-worker dispatch or a reclaim race) so the done job
				// cannot keep the queue counting as busy.
				q.be.Remove(q.pendingName(j.ID()))
				out.AlreadyDone++
				continue
			}
			if jobStored(q, p, spec, j) {
				if err := q.WriteResult(Result{Job: j, Worker: "dispatch", Deduped: true}); err != nil {
					return out, err
				}
				q.be.Remove(q.pendingName(j.ID()))
				out.Deduped++
				continue
			}
		}
		enqueued, err := q.Enqueue(j)
		if err != nil {
			return out, err
		}
		if enqueued {
			out.Enqueued++
		} else {
			out.AlreadyQueued++
		}
	}
	return out, nil
}

// validateSpec resolves every name in the spec, so a bad dispatch fails
// before anything is enqueued rather than as N failed jobs.
func validateSpec(spec Spec) error {
	if spec.Generate != nil {
		// Generation dispatches have no workload grid of their own: the
		// generate spec names the baseline suite, and its own validation
		// covers bounds and axis names.
		if err := spec.Generate.Validate(); err != nil {
			return fmt.Errorf("cluster: dispatch: %w", err)
		}
		if _, err := generate.BaselineWorkloads(spec.Generate); err != nil {
			return fmt.Errorf("cluster: dispatch: %w", err)
		}
		return nil
	}
	if len(spec.Workloads) == 0 {
		return fmt.Errorf("cluster: dispatch: no workloads")
	}
	if len(spec.ISAs) == 0 || len(spec.Levels) == 0 {
		return fmt.Errorf("cluster: dispatch: empty ISA or level grid")
	}
	for _, w := range spec.Workloads {
		if workloads.ByName(w) == nil {
			return fmt.Errorf("cluster: dispatch: unknown workload %q", w)
		}
	}
	for _, name := range spec.ISAs {
		if isa.ByName(name) == nil {
			return fmt.Errorf("cluster: dispatch: unknown ISA %q", name)
		}
	}
	for _, l := range spec.Levels {
		if l < 0 || l >= len(compiler.Levels) {
			return fmt.Errorf("cluster: dispatch: optimization level %d out of range 0-%d", l, len(compiler.Levels)-1)
		}
	}
	for i, cfg := range spec.Explore {
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("cluster: dispatch: explore point %d: %w", i, err)
		}
	}
	return nil
}

// jobStored reports whether every artifact job j of spec would persist
// already exists in the queue's store, probed with Get so that a corrupt
// or stale entry counts as absent and the work is redone. Exploration
// jobs additionally require the simulation summaries of every
// (config, level) cell whose config runs on the grid point's ISA.
func jobStored(q *Queue, p *pipeline.Pipeline, spec Spec, j Job) bool {
	if spec.Generate != nil {
		// A generate job's synthesis key depends on the sampled profile's
		// content fingerprint, which only the sampler knows; probing it here
		// would mean re-sampling at dispatch time. Always enqueue — a warm
		// store makes the job a fast no-op on the worker instead.
		return false
	}
	w := workloads.ByName(j.Workload)
	if w == nil {
		return false
	}
	st := q.Store()
	for _, pt := range spec.Points() {
		target := isa.ByName(pt.ISA)
		if target == nil {
			return false
		}
		keys := p.PairKeys(w, target, compiler.Levels[pt.Level])
		for _, cfg := range spec.Explore {
			if cfg.ISA != target {
				continue // this config simulates on a different grid ISA
			}
			keys = append(keys, p.SimKeys(w, target, compiler.Levels[pt.Level], cfg, spec.SimMaxInstrs)...)
		}
		for _, k := range keys {
			if _, ok := st.Get(k.Digest(), k.StoreKind(), k.Canonical()); !ok {
				return false
			}
		}
	}
	return true
}

// WaitOptions tunes a Wait call.
type WaitOptions struct {
	// TTL is the lease expiry used while reclaiming stalled jobs
	// (0 = DefaultLeaseTTL).
	TTL time.Duration
	// Poll is the queue polling interval (0 = DefaultPoll).
	Poll time.Duration
	// Progress, when non-nil, is called with the queue counts after every
	// poll.
	Progress func(Counts, int)
}

// Default lease and polling intervals shared by Wait, Worker, and the CLI.
const (
	DefaultLeaseTTL = time.Minute
	DefaultPoll     = 250 * time.Millisecond
)

// durationOr returns d, or def when d is unset.
func durationOr(d, def time.Duration) time.Duration {
	if d <= 0 {
		return def
	}
	return d
}

// errStalled diagnoses a queue whose jobs cannot all arrive.
func errStalled(done, total int) error {
	return fmt.Errorf("cluster: queue stalled at %d/%d jobs with nothing pending or leased (dispatch interrupted before enqueueing everything?); re-run the same dispatch to top it up", done, total)
}

// drained is the one convergence check of Wait and Worker.Run. It reads
// the queue counts and reports whether the done count has reached total,
// the dispatch's job count. (The per-state reads are not one atomic
// snapshot — a job mid-rename is briefly in neither state — so "pending
// and leased both empty" would be a racy exit condition; the done count is
// monotone.)
//
// Nothing pending, nothing leased, yet fewer done than total is an
// impossible state: the residue of an interrupted dispatch. drained
// tolerates it for one lease TTL, tracked in *stalledSince across calls,
// then reports it as an error. A job mid-rename sits in "neither state"
// for microseconds, and a dispatch still dedup-probing a large warm store
// enqueues its first job well within the TTL (the same trust horizon the
// whole protocol grants a silent participant), so a shortfall persisting
// past it means jobs were lost — and re-running the same dispatch
// re-enqueues them.
func (q *Queue) drained(total int, ttl time.Duration, stalledSince *time.Time) (Counts, bool, error) {
	c, err := q.Counts()
	if err != nil {
		return c, false, err
	}
	idle := c.Pending == 0 && c.Leased == 0
	switch {
	case c.Done >= total:
		return c, true, nil
	case !idle:
		*stalledSince = time.Time{}
	case stalledSince.IsZero():
		*stalledSince = time.Now()
	case time.Since(*stalledSince) >= ttl:
		return c, false, errStalled(c.Done, total)
	}
	return c, false, nil
}

// Wait blocks until every dispatched job reaches the done state,
// reclaiming expired leases while it waits so a crashed worker's jobs are
// re-leased even if no other worker is around to notice. It returns the
// final results. A queue that cannot converge (see Queue.drained) is
// reported as an error instead of polling forever.
func Wait(ctx context.Context, q *Queue, opts WaitOptions) ([]Result, error) {
	m, err := q.Manifest()
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("cluster: wait: nothing dispatched")
	}
	ttl := durationOr(opts.TTL, DefaultLeaseTTL)
	total := len(m.Spec.Jobs())
	var stalledSince time.Time
	for {
		c, done, err := q.drained(total, ttl, &stalledSince)
		if err != nil {
			return nil, err
		}
		if opts.Progress != nil {
			opts.Progress(c, total)
		}
		if done {
			return q.Results()
		}
		if _, err := q.Reclaim(ttl); err != nil {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(durationOr(opts.Poll, DefaultPoll)):
		}
	}
}
