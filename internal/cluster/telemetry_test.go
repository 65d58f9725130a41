package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestClusterTelemetryWorkerDrain drains a scripted queue through a
// metered worker and asserts the job-lifecycle counters: claims, acks by
// result, panics, and the duration histogram all move, and the exposition
// carries them under the synth_cluster_* names.
func TestClusterTelemetryWorkerDrain(t *testing.T) {
	q := testQueue(t)
	spec := fakeJobs(t, q, 3)

	reg := telemetry.NewRegistry()
	w := &Worker{
		Queue: q, Spec: spec, ID: "metered", TTL: time.Hour, Poll: 5 * time.Millisecond,
		Metrics: NewMetrics(reg),
		exec: func(ctx context.Context, j Job) error {
			if strings.HasSuffix(j.Workload, "job0") {
				return fmt.Errorf("scripted failure")
			}
			return nil
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("run: %v", err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	out := b.String()
	for _, line := range []string{
		"synth_cluster_claims_total 3",
		`synth_cluster_jobs_total{result="ok"} 2`,
		`synth_cluster_jobs_total{result="failed"} 1`,
		"synth_cluster_job_seconds_count 3",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("scrape missing %q:\n%s", line, out)
		}
	}
}

// TestClusterTelemetrySupervisorPool runs a supervised drain with a
// registry attached — one scripted failure, one panic, and one lease
// abandoned by a vanished worker — and asserts the pool gauges and
// lifecycle counters are scrapable, including the queue-depth gauges over
// the drained queue. Status is a view over the same counters: its job
// counts must equal both Metrics().Snapshot() and the synth_cluster_*
// series.
func TestClusterTelemetrySupervisorPool(t *testing.T) {
	q := testQueue(t)
	fakeJobs(t, q, 3)
	// A worker that claims a job and vanishes: its lease expires and the
	// coordinator ticker reclaims it once.
	if l, err := q.Claim("ghost"); err != nil || l == nil {
		t.Fatalf("ghost claim: %v, %v", l, err)
	}

	reg := telemetry.NewRegistry()
	RegisterQueueGauges(reg, q)
	var panicked atomic.Bool
	sup, err := NewSupervisor(q, SupervisorOptions{
		Node: "tele", Min: 1, Max: 2, TTL: 300 * time.Millisecond,
		Poll: 5 * time.Millisecond, Interval: 10 * time.Millisecond,
		Telemetry: reg,
		exec: func(ctx context.Context, j Job) error {
			switch {
			case strings.HasSuffix(j.Workload, "job0") && panicked.CompareAndSwap(false, true):
				panic("scripted panic")
			case strings.HasSuffix(j.Workload, "job1"):
				return fmt.Errorf("scripted failure")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("supervisor: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		sup.Run(ctx)
	}()
	waitFor(t, 30*time.Second, "queue to converge", func() bool {
		c, err := q.Counts()
		return err == nil && c.Done == 3
	})
	cancel()
	<-done

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	out := b.String()
	st, m := sup.Status().Jobs, sup.Metrics().Snapshot()
	if st.JobsOK != 2 || st.JobsFailed != 1 || st.Panics != 1 || st.Reclaims != 1 {
		t.Fatalf("status counters: %+v", st)
	}
	if st != m {
		t.Fatalf("status %+v disagrees with metrics snapshot %+v", st, m)
	}
	for _, line := range []string{
		fmt.Sprintf(`synth_cluster_jobs_total{result="ok"} %d`, st.JobsOK),
		fmt.Sprintf(`synth_cluster_jobs_total{result="failed"} %d`, st.JobsFailed),
		fmt.Sprintf("synth_cluster_panics_total %d", st.Panics),
		fmt.Sprintf("synth_cluster_reclaims_total %d", st.Reclaims),
		"synth_cluster_queue_done 3",
		"synth_cluster_queue_pending 0",
		"synth_cluster_pool_busy 0",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("scrape missing %q:\n%s", line, out)
		}
	}
	if !strings.Contains(out, "synth_cluster_pool_workers") {
		t.Fatalf("scrape missing cluster families:\n%s", out)
	}
	if age, err := q.OldestLeaseAge(); err != nil || age != 0 {
		t.Fatalf("OldestLeaseAge on drained queue = %v, %v; want 0", age, err)
	}
}

// TestClusterMetricsCountWithoutRegistry pins that a Metrics built without
// a registry still counts — Status reads it on registry-less nodes — and
// that a nil *Metrics is a no-op.
func TestClusterMetricsCountWithoutRegistry(t *testing.T) {
	m := NewMetrics(nil)
	m.Claim()
	m.Acked(time.Millisecond, false)
	m.Acked(time.Millisecond, true)
	m.Reclaimed(2)
	m.Panic()
	want := MetricsSnapshot{Claims: 1, JobsOK: 1, JobsFailed: 1, Reclaims: 2, Panics: 1}
	if got := m.Snapshot(); got != want {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}
	var nilM *Metrics
	nilM.Claim()
	nilM.Acked(time.Millisecond, true)
	if got := nilM.Snapshot(); got != (MetricsSnapshot{}) {
		t.Fatalf("nil metrics snapshot = %+v", got)
	}
}
