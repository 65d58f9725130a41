// Package cluster shards the workload × ISA × optimization-level cross
// product across multiple cooperating processes that share one artifact
// store. A coordinator enumerates jobs from a suite spec, deduplicates them
// against already-stored artifacts, and enqueues the rest into a durable
// job queue persisted under the store; workers lease jobs, execute them
// through a pipeline, heartbeat while working, and acknowledge results; a
// consolidator merges per-shard cache statistics into one cluster report.
//
// The queue is plain files under <store root>/cluster, following the store
// package's conventions: every write is a temp file + atomic rename, and
// every state transition is a rename, so concurrent processes — however
// they are scheduled or killed — never observe a partial entry and never
// both win the same job. A worker that crashes mid-job stops heartbeating;
// its lease expires and any other participant renames the job back to
// pending, so the shard is re-leased, not lost.
//
// Jobs are sharded on the workload axis: one job covers every (ISA, level)
// point of one workload. This granularity is deliberate — every pipeline
// cache key is workload-scoped (see pipeline.Key), so jobs of different
// workloads share no artifacts, and lease exclusivity alone guarantees that
// N workers draining a queue duplicate zero stage computations versus a
// single cold process, without any cross-process locking.
package cluster

import (
	"fmt"
	"strings"

	"repro/internal/cpu"
	"repro/internal/generate"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// SchemaVersion is the queue's on-disk schema: the layout of its manifest
// and job files. Manifests written under a different version are
// rejected, so mixed-binary fleets fail loudly instead of corrupting each
// other's queues. Version 2 added exploration dispatches (Spec.Explore,
// Job.Kind/Sims); version 3 added generation dispatches (Spec.Generate,
// Job.GenIndex); versions 4 and 5 followed artifact-format changes, which
// Spec.Canonical now carries instead (see pipeline.ArtifactVersion);
// version 6 dropped the spec's profiling-point and profiling-bound fields
// (the profiling point is fixed in package profile); version 7 dropped the
// machine configs' "epic" field (a config's ISA decides its timing model);
// version 8 reduced a job to its dispatch digest and shard (Job.Kind, the
// grid, machines, bound and generation spec are read from the manifest's
// Spec) and dropped Manifest.Total.
const SchemaVersion = 8

// Spec declares one dispatch: which workloads to synthesize, over which
// (ISA, level) grid, and the synthesis seed that shapes the artifacts.
// Workers build their pipeline with the manifest's Seed, so every
// participant derives identical cache keys by construction.
type Spec struct {
	// Suite names the workload suite the spec was built from (tiny, quick,
	// full); informational — Workloads is authoritative.
	Suite string `json:"suite"`
	// Workloads lists the workload/input pairs to clone, one job each.
	Workloads []string `json:"workloads"`
	// ISAs and Levels define the per-workload compilation grid.
	ISAs   []string `json:"isas"`
	Levels []int    `json:"levels"`
	// Seed is the pipeline's clone-synthesis seed.
	Seed int64 `json:"seed"`
	// Explore, when non-empty, makes this an exploration dispatch: each
	// job simulates its workload's original and synthetic clone on every
	// one of these machine configurations at every level of the grid,
	// through the pipeline's cached Simulate stage. Jobs remain sharded
	// per workload, and simulation keys are workload-scoped, so the
	// queue's zero-duplication guarantee is unchanged.
	Explore []cpu.Config `json:"explore,omitempty"`
	// SimMaxInstrs bounds each exploration simulation's dynamic
	// instruction count (0 = run to completion); part of the simulation
	// cache key, so every participant must agree on it.
	SimMaxInstrs uint64 `json:"simMaxInstrs,omitempty"`
	// Generate, when set, makes this a generation dispatch: the fleet
	// realizes one directed synthetic workload per job (Job.GenIndex picks
	// the point). The sampler is deterministic, so every worker derives the
	// identical point list from this spec alone; the realized clones land
	// in the shared store, where the dispatcher's closing generate.Run
	// finds every synthesis warm. Workloads/ISAs/Levels are unused.
	Generate *generate.Spec `json:"generate,omitempty"`
}

// Canonical returns the versioned, unambiguous encoding of the spec. Two
// dispatches with equal canonicals are the same dispatch; a manifest whose
// canonical differs from a new dispatch's marks a conflicting queue. It
// includes the pipeline's artifact version, so a worker built for another
// version derives a different dispatch digest from the same manifest and
// aborts instead of storing artifacts its coordinator cannot read.
func (s Spec) Canonical() string {
	sims := make([]string, len(s.Explore))
	for i, cfg := range s.Explore {
		sims[i] = cfg.CanonicalConfig()
	}
	gen := ""
	if s.Generate != nil {
		gen = s.Generate.Canonical()
	}
	return fmt.Sprintf("v4|a%d|%s|%s|%s|%s|%d|%s|%d|%s", pipeline.ArtifactVersion,
		s.Suite, strings.Join(s.Workloads, ","), strings.Join(s.ISAs, ","),
		joinInts(s.Levels), s.Seed,
		strings.Join(sims, ";"), s.SimMaxInstrs, gen)
}

// Digest returns the spec's dispatch identity — the digest of its
// canonical encoding. Every job carries it (Job.Dispatch), and workers
// compare it against the manifest they built their pipeline from, so a
// queue re-dispatched under a worker's feet aborts the worker instead of
// executing foreign jobs with stale options.
func (s Spec) Digest() string {
	return store.Fingerprint([]byte(s.Canonical()))
}

// Jobs enumerates the spec's job list: one job per workload, covering
// the spec's whole (ISA, level) grid (see the package comment for why
// sharding is per-workload). Generation specs shard on the point axis
// instead: one job per directed sample, so N workers realize N synthetic
// workloads concurrently. A job names only its dispatch and its shard;
// the grid, machines and generation spec stay in the spec, and workers
// read them from the manifest.
func (s Spec) Jobs() []Job {
	specDigest := s.Digest()
	if s.Generate != nil {
		jobs := make([]Job, s.Generate.N)
		for i := range jobs {
			jobs[i] = Job{Workload: fmt.Sprintf("gen[%d]", i), Dispatch: specDigest, GenIndex: i}
		}
		return jobs
	}
	jobs := make([]Job, len(s.Workloads))
	for i, w := range s.Workloads {
		jobs[i] = Job{Workload: w, Dispatch: specDigest}
	}
	return jobs
}

// Manifest is the queue's root document, written by the coordinator and
// read by every worker: the dispatch spec, the one copy of the work its
// jobs shard, and its canonical encoding. Canonical is kept rather than
// recomputed because it pins the artifact version the dispatch was made
// under: a newer binary recomputing it would take an old queue for its
// own. The job count Wait and status reporting converge on is
// len(Spec.Jobs()).
type Manifest struct {
	// Version is the queue schema the manifest was written under.
	Version int `json:"version"`
	// Spec is the dispatch being executed.
	Spec Spec `json:"spec"`
	// Canonical is Spec.Canonical() as the dispatcher computed it, for
	// cheap conflict checks.
	Canonical string `json:"canonical"`
}

// joinInts renders ints comma-separated.
func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}
