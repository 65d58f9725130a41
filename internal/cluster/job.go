package cluster

import (
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/store"
)

// Job is one shard of a dispatch. It names its shard and nothing else:
// the dispatch it belongs to and its workload (or, in a generation
// dispatch, its sampled point). The work every shard shares — the
// (ISA, level) grid, the machine configurations, the simulation bound and
// the generation spec — lives once, in the manifest's Spec, which is the
// copy a worker builds its pipeline from and executes jobs against.
type Job struct {
	// Workload is the workload/input pair to clone; in a generation
	// dispatch, the point label "gen[i]", which keeps generate job IDs
	// distinct within a dispatch.
	Workload string `json:"workload"`
	// Dispatch is the digest of the owning spec's canonical encoding.
	// It scopes job IDs, so results from a superseded dispatch can never
	// be mistaken for this one's, and it is what a worker checks against
	// the spec it holds before executing the job.
	Dispatch string `json:"dispatch"`
	// GenIndex is the sampled point of Spec.Generate this job realizes
	// (generation dispatches only).
	GenIndex int `json:"genIndex,omitempty"`
}

// ID returns the job's queue identity: a digest over the dispatch digest
// and the workload name. Stable across processes, unique within a
// dispatch, and distinct across different dispatch specs.
func (j Job) ID() string {
	return store.Fingerprint([]byte(fmt.Sprintf("v1|%s|%s", j.Dispatch, j.Workload)))
}

// Cells returns the number of evaluation cells one of the spec's jobs
// executes: one directed point in a generation dispatch, the (machine
// configuration, level) simulation grid in an exploration dispatch, and
// the (ISA, level) compile grid otherwise.
func (s Spec) Cells() int {
	switch {
	case s.Generate != nil:
		return 1
	case len(s.Explore) > 0:
		return len(s.Explore) * len(s.Levels)
	}
	return len(s.ISAs) * len(s.Levels)
}

// Points returns the spec's (ISA, level) grid in deterministic order: the
// points every job of a pair or exploration dispatch covers for its
// workload.
func (s Spec) Points() []Point {
	pts := make([]Point, 0, len(s.ISAs)*len(s.Levels))
	for _, isaName := range s.ISAs {
		for _, level := range s.Levels {
			pts = append(pts, Point{ISA: isaName, Level: level})
		}
	}
	return pts
}

// Point is one (ISA, level) cell of a spec's grid.
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
