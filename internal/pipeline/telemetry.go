package pipeline

import (
	"repro/internal/telemetry"
)

// stageSecondsBuckets spans the observed range of stage wall times: a parse
// is microseconds, a cold profile of a large workload tens of seconds.
var stageSecondsBuckets = []float64{
	0.0001, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// cacheTelemetry holds the pipeline's registry-only metric handles and the
// span tracer. Built from a nil registry/tracer it is entirely no-op
// handles, so the cache's hot path pays only nil checks when telemetry is
// disabled.
type cacheTelemetry struct {
	wipAdopted *telemetry.Counter
	seconds    [NumStages]*telemetry.Histogram
	tracer     *telemetry.Tracer
}

// newCacheTelemetry exposes n in reg, resolves the registry-only handles,
// and attaches tracer; reg and tracer may be nil. The scrape funcs capture
// n alone, never the artifact cache, so a dropped pipeline's artifacts stay
// collectable while the registry lives; the registry sums the funcs of
// every pipeline sharing it.
func newCacheTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer, n *cacheCounters) *cacheTelemetry {
	reg.CounterFunc("synth_pipeline_cache_hits_total",
		"Requests satisfied by (or coalesced onto) an in-memory cache entry.", n.hits.Load)
	reg.CounterFunc("synth_pipeline_cache_misses_total",
		"Requests that computed the artifact.", n.misses.Load)
	reg.CounterFunc("synth_pipeline_cache_disk_hits_total",
		"Memory misses satisfied by the persistent store.", n.diskHits.Load)
	reg.CounterFunc("synth_pipeline_cache_disk_errors_total",
		"Store entries that failed to decode and store writes that failed.", n.diskErrors.Load)
	t := &cacheTelemetry{tracer: tracer}
	t.wipAdopted = reg.Counter("synth_pipeline_wip_adopted_total",
		"Artifacts another process computed, adopted through the in-progress gate instead of computed.")
	for s := Stage(0); int(s) < NumStages; s++ {
		reg.CounterFunc("synth_pipeline_stage_computed_total",
			"Artifact computations by pipeline stage.", n.computed[s].Load, "stage", s.String())
		t.seconds[s] = reg.Histogram("synth_pipeline_stage_seconds",
			"Wall time of artifact computations by pipeline stage.",
			stageSecondsBuckets, "stage", s.String())
	}
	return t
}
