package cluster

import (
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// jobSecondsBuckets spans job wall times: a warm job is milliseconds, a
// cold explore shard tens of seconds.
var jobSecondsBuckets = []float64{
	0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// Metrics owns the cluster's job-lifecycle counters: claims, acks (by
// result), ack retries, lease reclaims, panics, and timeouts, plus a job
// duration histogram. Build one per node with NewMetrics and share it
// across the workers and supervisor of that node; all methods are no-ops
// on a nil *Metrics, so unplumbed paths cost nothing.
type Metrics struct {
	claims     atomic.Uint64
	jobsOK     atomic.Uint64
	jobsFailed atomic.Uint64
	ackRetries atomic.Uint64
	reclaims   atomic.Uint64
	panics     atomic.Uint64
	timeouts   atomic.Uint64
	jobSeconds *telemetry.Histogram
}

// NewMetrics builds the counters and exposes them in reg (nil reg: they
// count unscraped).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	m := &Metrics{jobSeconds: reg.Histogram("synth_cluster_job_seconds",
		"Wall time of acked jobs.", jobSecondsBuckets)}
	reg.CounterFunc("synth_cluster_claims_total",
		"Job leases claimed by this node's workers.", m.claims.Load)
	reg.CounterFunc("synth_cluster_jobs_total",
		"Jobs acked by this node, by result.", m.jobsOK.Load, "result", "ok")
	reg.CounterFunc("synth_cluster_jobs_total",
		"Jobs acked by this node, by result.", m.jobsFailed.Load, "result", "failed")
	reg.CounterFunc("synth_cluster_ack_retries_total",
		"Failed ack attempts that were retried with backoff.", m.ackRetries.Load)
	reg.CounterFunc("synth_cluster_reclaims_total",
		"Expired leases returned to pending by this node.", m.reclaims.Load)
	reg.CounterFunc("synth_cluster_panics_total",
		"Job executions that panicked (recovered).", m.panics.Load)
	reg.CounterFunc("synth_cluster_job_timeouts_total",
		"Jobs acked as failed because they outran the job timeout.", m.timeouts.Load)
	return m
}

// Claim records one successful lease claim.
func (m *Metrics) Claim() {
	if m != nil {
		m.claims.Add(1)
	}
}

// AckRetry records one failed ack attempt that will be retried.
func (m *Metrics) AckRetry() {
	if m != nil {
		m.ackRetries.Add(1)
	}
}

// Acked records one acked job: its duration and result.
func (m *Metrics) Acked(d time.Duration, failed bool) {
	if m == nil {
		return
	}
	if failed {
		m.jobsFailed.Add(1)
	} else {
		m.jobsOK.Add(1)
	}
	m.jobSeconds.Observe(d.Seconds())
}

// Reclaimed records n expired leases returned to pending.
func (m *Metrics) Reclaimed(n int) {
	if m != nil && n > 0 {
		m.reclaims.Add(uint64(n))
	}
}

// Panic records one recovered job panic.
func (m *Metrics) Panic() {
	if m != nil {
		m.panics.Add(1)
	}
}

// Timeout records one job acked as failed after outrunning its timeout.
func (m *Metrics) Timeout() {
	if m != nil {
		m.timeouts.Add(1)
	}
}

// MetricsSnapshot is a point-in-time copy of a node's job-lifecycle
// counters, JSON-shaped for the cluster status endpoint.
type MetricsSnapshot struct {
	Claims     uint64 `json:"claims"`
	JobsOK     uint64 `json:"jobs_ok"`
	JobsFailed uint64 `json:"jobs_failed"`
	AckRetries uint64 `json:"ack_retries"`
	Reclaims   uint64 `json:"reclaims"`
	Panics     uint64 `json:"panics"`
	Timeouts   uint64 `json:"timeouts"`
}

// Snapshot reads every counter once (all zeros on a nil *Metrics).
func (m *Metrics) Snapshot() MetricsSnapshot {
	if m == nil {
		return MetricsSnapshot{}
	}
	return MetricsSnapshot{
		Claims:     m.claims.Load(),
		JobsOK:     m.jobsOK.Load(),
		JobsFailed: m.jobsFailed.Load(),
		AckRetries: m.ackRetries.Load(),
		Reclaims:   m.reclaims.Load(),
		Panics:     m.panics.Load(),
		Timeouts:   m.timeouts.Load(),
	}
}

// RegisterQueueGauges registers scrape-time gauges over q in reg: the
// pending/leased/done depths and the oldest lease age. Reads hit the
// queue's backing store at scrape time; a flaking store reads as zero
// rather than failing the scrape.
func RegisterQueueGauges(reg *telemetry.Registry, q *Queue) {
	if reg == nil || q == nil {
		return
	}
	depth := func(pick func(Counts) int) func() float64 {
		return func() float64 {
			c, err := q.Counts()
			if err != nil {
				return 0
			}
			return float64(pick(c))
		}
	}
	reg.GaugeFunc("synth_cluster_queue_pending", "Jobs waiting to be claimed.",
		depth(func(c Counts) int { return c.Pending }))
	reg.GaugeFunc("synth_cluster_queue_leased", "Jobs currently leased to workers.",
		depth(func(c Counts) int { return c.Leased }))
	reg.GaugeFunc("synth_cluster_queue_done", "Jobs with recorded results.",
		depth(func(c Counts) int { return c.Done }))
	reg.GaugeFunc("synth_cluster_lease_age_seconds",
		"Age of the stalest held lease (heartbeats reset it; 0 = none held).",
		func() float64 {
			age, err := q.OldestLeaseAge()
			if err != nil {
				return 0
			}
			return age.Seconds()
		})
}
