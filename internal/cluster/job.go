package cluster

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/generate"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// KindExplore marks a job as an exploration shard: beyond the pair grid,
// the worker simulates the workload's original and clone on every machine
// configuration in Sims at every level.
const KindExplore = "explore"

// KindGenerate marks a job as a generation shard: the worker realizes one
// directed synthetic workload — point GenIndex of the dispatch spec's
// generate.Spec — through the pipeline's Synthesize → Validate path.
const KindGenerate = "generate"

// Job is one shard of a dispatch: every (ISA, level) point of one
// workload. Jobs are self-describing — a pending file carries the whole
// struct — so a worker needs only the manifest (for pipeline options) and
// the job file to execute.
type Job struct {
	// Workload is the workload/input pair to clone.
	Workload string `json:"workload"`
	// ISAs and Levels are the compilation grid, copied from the spec.
	ISAs   []string `json:"isas"`
	Levels []int    `json:"levels"`
	// Dispatch is the digest of the owning spec's canonical encoding.
	// It scopes job IDs, so results from a superseded dispatch can never
	// be mistaken for this one's.
	Dispatch string `json:"dispatch"`
	// Kind discriminates job flavors: "" is pair synthesis, KindExplore
	// an exploration shard.
	Kind string `json:"kind,omitempty"`
	// Sims and SimMaxInstrs carry an exploration spec's machine
	// configurations and simulation bound (KindExplore jobs only).
	Sims         []cpu.Config `json:"sims,omitempty"`
	SimMaxInstrs uint64       `json:"simMaxInstrs,omitempty"`
	// Gen and GenIndex carry a generation spec and which of its sampled
	// points this job realizes (KindGenerate jobs only). The spec rides in
	// every job so jobs stay self-describing; the point index is also baked
	// into Workload ("gen[i]"), which is what keeps generate job IDs
	// distinct within a dispatch.
	Gen      *generate.Spec `json:"gen,omitempty"`
	GenIndex int            `json:"genIndex,omitempty"`
}

// ID returns the job's queue identity: a digest over the dispatch digest
// and the workload name. Stable across processes, unique within a
// dispatch, and distinct across different dispatch specs.
func (j Job) ID() string {
	return store.Fingerprint([]byte(fmt.Sprintf("v1|%s|%s", j.Dispatch, j.Workload)))
}

// Cells returns the number of evaluation cells the job executes: the
// (ISA, level) compile grid for pair-synthesis jobs, the (machine
// configuration, level) simulation grid for exploration jobs.
func (j Job) Cells() int {
	switch j.Kind {
	case KindExplore:
		return len(j.Sims) * len(j.Levels)
	case KindGenerate:
		return 1 // one directed point per job
	}
	return len(j.ISAs) * len(j.Levels)
}

// Points returns the job's (ISA, level) grid in deterministic order.
func (j Job) Points() []Point {
	pts := make([]Point, 0, len(j.ISAs)*len(j.Levels))
	for _, isaName := range j.ISAs {
		for _, level := range j.Levels {
			pts = append(pts, Point{ISA: isaName, Level: level})
		}
	}
	return pts
}

// Point is one (ISA, level) cell of a job's grid.
type Point struct {
	// ISA names the target ISA.
	ISA string `json:"isa"`
	// Level is the optimization level index.
	Level int `json:"level"`
}

// Result records one finished job in the queue's done state. Results are
// written with the store's atomic conventions and merged by BuildReport.
type Result struct {
	// Job is the job the result answers.
	Job Job `json:"job"`
	// Worker identifies who executed (or deduplicated) the job.
	Worker string `json:"worker"`
	// Stats is the job's exact artifact-cache delta on the executing
	// worker (zero for deduplicated jobs).
	Stats pipeline.CacheStats `json:"stats"`
	// Deduped marks a job satisfied entirely from the store at dispatch
	// time, without ever being enqueued.
	Deduped bool `json:"deduped,omitempty"`
	// Millis is the job's wall-clock execution time.
	Millis int64 `json:"millis"`
	// Err carries the failure message of a job whose execution failed.
	// Failed jobs still reach the done state — the queue converges and the
	// report lists them — rather than being retried forever.
	Err string `json:"error,omitempty"`
}
