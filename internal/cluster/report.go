package cluster

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/pipeline"
)

// Report is the cluster-wide consolidation of a dispatch's results:
// per-shard cache statistics merged into one total, plus per-worker
// progress. Because jobs are artifact-disjoint shards, the merged Computed
// counters of a cold cluster run equal a single-process cold run's — the
// report is where that zero-duplication property becomes checkable.
type Report struct {
	// Total is the dispatched job count; Done, Failed, and Deduped break
	// down the results.
	Total   int `json:"total"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	Deduped int `json:"deduped"`
	// Stats is the sum of every executed job's cache-stats delta.
	Stats pipeline.CacheStats `json:"stats"`
	// Elapsed is the summed per-job execution wall time.
	Elapsed time.Duration `json:"elapsed"`
	// Workers maps worker IDs to their share of the run ("dispatch" owns
	// deduplicated jobs).
	Workers map[string]WorkerReport `json:"workers"`
	// Failures lists the failed jobs' workloads and messages.
	Failures []string `json:"failures,omitempty"`
}

// WorkerReport is one worker's share of a dispatch.
type WorkerReport struct {
	// Jobs and Failed count the worker's acked jobs; Stats sums its
	// per-job deltas.
	Jobs   int                 `json:"jobs"`
	Failed int                 `json:"failed"`
	Stats  pipeline.CacheStats `json:"stats"`
}

// BuildReport consolidates a dispatch's results.
func BuildReport(m *Manifest, results []Result) Report {
	r := Report{Workers: map[string]WorkerReport{}}
	if m != nil {
		r.Total = len(m.Spec.Jobs())
	}
	for _, res := range results {
		r.Done++
		if res.Deduped {
			r.Deduped++
		}
		if res.Err != "" {
			r.Failed++
			r.Failures = append(r.Failures, fmt.Sprintf("%s: %s", res.Job.Workload, res.Err))
		}
		r.Stats = r.Stats.Add(res.Stats)
		r.Elapsed += time.Duration(res.Millis) * time.Millisecond
		wr := r.Workers[res.Worker]
		wr.Jobs++
		if res.Err != "" {
			wr.Failed++
		}
		wr.Stats = wr.Stats.Add(res.Stats)
		r.Workers[res.Worker] = wr
	}
	return r
}

// Print renders the report: one summary line, one line per worker, and the
// failures. The stats line uses the same per-stage computed format the CLI
// prints elsewhere, so CI can grep either.
func (r Report) Print(w io.Writer) {
	fmt.Fprintf(w, "cluster: %d/%d jobs done (%d deduped from store, %d failed), %s job time\n",
		r.Done, r.Total, r.Deduped, r.Failed, r.Elapsed.Round(time.Millisecond))
	names := make([]string, 0, len(r.Workers))
	for n := range r.Workers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		wr := r.Workers[n]
		fmt.Fprintf(w, "  worker %-12s jobs=%d failed=%d computed compile=%d profile=%d synthesize=%d simulate=%d\n",
			n, wr.Jobs, wr.Failed,
			wr.Stats.ComputedFor(pipeline.StageCompile),
			wr.Stats.ComputedFor(pipeline.StageProfile),
			wr.Stats.ComputedFor(pipeline.StageSynthesize),
			wr.Stats.ComputedFor(pipeline.StageSimulate))
	}
	fmt.Fprintf(w, "  total computed compile=%d profile=%d synthesize=%d simulate=%d (%d disk hits, %d disk errors)\n",
		r.Stats.ComputedFor(pipeline.StageCompile),
		r.Stats.ComputedFor(pipeline.StageProfile),
		r.Stats.ComputedFor(pipeline.StageSynthesize),
		r.Stats.ComputedFor(pipeline.StageSimulate),
		r.Stats.DiskHits, r.Stats.DiskErrors)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  failed: %s\n", f)
	}
}
