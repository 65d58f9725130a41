package pipeline

import (
	"repro/internal/telemetry"
)

// stageSecondsBuckets spans the observed range of stage wall times: a parse
// is microseconds, a cold profile of a large workload tens of seconds.
var stageSecondsBuckets = []float64{
	0.0001, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// cacheTelemetry holds the pipeline's pre-resolved metric handles and the
// span tracer. Built from a nil registry/tracer it is entirely no-op
// handles, so the cache's hot path pays only nil checks when telemetry is
// disabled. Every increment site updates both these counters and the
// cache's own atomics. The counters live in the registry, though, and
// pipelines sharing one registry (cluster.Supervisor builds one per
// dispatch digest) add into the same series, so a /metrics scrape equals
// CacheStats only when one pipeline owns the registry.
type cacheTelemetry struct {
	hits       *telemetry.Counter
	misses     *telemetry.Counter
	diskHits   *telemetry.Counter
	diskErrors *telemetry.Counter
	wipAdopted *telemetry.Counter
	computed   [NumStages]*telemetry.Counter
	seconds    [NumStages]*telemetry.Histogram
	tracer     *telemetry.Tracer
}

// newCacheTelemetry resolves the pipeline's metric handles in reg and
// attaches tracer. Both may be nil.
func newCacheTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) *cacheTelemetry {
	t := &cacheTelemetry{tracer: tracer}
	t.hits = reg.Counter("synth_pipeline_cache_hits_total",
		"Requests satisfied by (or coalesced onto) an in-memory cache entry.")
	t.misses = reg.Counter("synth_pipeline_cache_misses_total",
		"Requests that computed the artifact.")
	t.diskHits = reg.Counter("synth_pipeline_cache_disk_hits_total",
		"Memory misses satisfied by the persistent store.")
	t.diskErrors = reg.Counter("synth_pipeline_cache_disk_errors_total",
		"Store entries that failed to decode and store writes that failed.")
	t.wipAdopted = reg.Counter("synth_pipeline_wip_adopted_total",
		"Artifacts adopted after waiting on another process's in-progress marker.")
	for s := Stage(0); int(s) < NumStages; s++ {
		t.computed[s] = reg.Counter("synth_pipeline_stage_computed_total",
			"Artifact computations by pipeline stage.", "stage", s.String())
		t.seconds[s] = reg.Histogram("synth_pipeline_stage_seconds",
			"Wall time of artifact computations by pipeline stage.",
			stageSecondsBuckets, "stage", s.String())
	}
	return t
}
