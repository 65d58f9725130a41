package generate

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/compiler"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/workloads"
)

// PointReport records one generated point's requested-vs-achieved outcome.
type PointReport struct {
	// Name is the point's corpus-unique name; Base the real workload it
	// was perturbed from; Axes the perturbed feature axes.
	Name string   `json:"name"`
	Base string   `json:"base"`
	Axes []string `json:"axes"`
	// Requested is the sampled profile's embedding; Achieved is the
	// embedding measured by re-profiling the realized clone at the
	// pipeline's profiling point. Err is the distance between them.
	Requested Features `json:"requested"`
	Achieved  Features `json:"achieved"`
	Err       float64  `json:"err"`
	// Separation is the achieved point's distance to its nearest baseline
	// neighbor: how much new feature-space volume the point actually fills.
	Separation float64 `json:"separation"`
	// CloneDyn is the realized clone's measured dynamic instruction count
	// (nonzero for every accepted point — the Validate criterion).
	CloneDyn uint64 `json:"cloneDyn"`
	// Source is the realized clone's HLC source, the corpus deliverable.
	Source string `json:"source,omitempty"`
	// Reject carries the failure reason of a point that did not realize;
	// rejected points have no Achieved/Source.
	Reject string `json:"reject,omitempty"`
}

// Report is the outcome of one generation run.
type Report struct {
	// Name is the corpus label; SpecDigest the spec's fingerprint; Seed
	// the sampler seed.
	Name       string `json:"name"`
	SpecDigest string `json:"specDigest"`
	Seed       int64  `json:"seed"`
	// Baseline is the suite's coverage before generation; After embeds
	// the baseline plus every accepted achieved point.
	Baseline Coverage `json:"baseline"`
	After    Coverage `json:"after"`
	// Points reports every sampled point in corpus order.
	Points []PointReport `json:"points"`
	// Accepted and Rejected count the points that did and did not realize.
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	// MinSeparation is the smallest Separation over accepted points. The
	// coverage claim "holes filled" means MinSeparation exceeds
	// Baseline.MinPairDist: every generated point sits farther from the
	// existing suite than the suite's two closest members sit from each
	// other (see docs/generate.md).
	MinSeparation float64 `json:"minSeparation"`
	// MeanErr and MaxErr summarize requested-vs-achieved error over
	// accepted points.
	MeanErr float64 `json:"meanErr"`
	MaxErr  float64 `json:"maxErr"`
}

// BaselineWorkloads resolves the spec's baseline suite: the named suite
// (default quick) plus the extra workloads, deduplicated in order.
func BaselineWorkloads(spec *Spec) ([]*workloads.Workload, error) {
	suite := spec.Suite
	if suite == "" {
		suite = "quick"
	}
	ws, err := experiments.Resolve(suite, spec.Workloads, false)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	return ws, nil
}

// samplePoints profiles the baseline through the cached pipeline and runs
// the directed sampler over it.
func samplePoints(ctx context.Context, p *pipeline.Pipeline, spec *Spec) ([]SampledPoint, []Features, error) {
	ws, err := BaselineWorkloads(spec)
	if err != nil {
		return nil, nil, err
	}
	profs, err := pipeline.Map(ctx, p, ws,
		func(ctx context.Context, w *workloads.Workload) (*profile.Profile, error) {
			return p.Profile(ctx, w)
		})
	if err != nil {
		return nil, nil, err
	}
	baseline := make([]Features, len(profs))
	for i, pr := range profs {
		baseline[i] = FromProfile(pr)
	}
	points, err := Sample(spec, profs)
	if err != nil {
		return nil, nil, err
	}
	return points, baseline, nil
}

// realizePoint feeds one sampled profile through the pipeline's cached
// Synthesize stage, then validates and measures the realized clone by
// compiling it at the profiling point and re-profiling it there — the
// achieved feature vector is the clone's own embedding, so
// requested-vs-achieved error is measured in the exact space the sampler
// targeted. Failures land in the point's Reject field, never as errors:
// one unrealizable point must not void the corpus.
func realizePoint(ctx context.Context, p *pipeline.Pipeline, sp SampledPoint) PointReport {
	rep := PointReport{Name: sp.Name, Base: sp.Base, Axes: sp.Axes, Requested: sp.Requested}
	cl, err := p.SynthesizeProfile(ctx, sp.Profile)
	if err != nil {
		rep.Reject = fmt.Sprintf("synthesize: %v", err)
		return rep
	}
	prog, err := compiler.Compile(cl.Checked, profile.Target, profile.Level)
	if err != nil {
		rep.Reject = fmt.Sprintf("compile: %v", err)
		return rep
	}
	// Clones are self-contained (no inputs) and terminate by construction;
	// a clone that traps or executes nothing is rejected, the same
	// criterion the Validate stage applies to named workloads.
	measured, err := profile.Collect(prog, nil, sp.Name)
	if err != nil {
		rep.Reject = fmt.Sprintf("validate: %v", err)
		return rep
	}
	if measured.TotalDyn == 0 {
		rep.Reject = "validate: clone executed no instructions"
		return rep
	}
	rep.Achieved = FromProfile(measured)
	rep.Err = Distance(rep.Requested, rep.Achieved)
	rep.CloneDyn = measured.TotalDyn
	rep.Source = cl.Source
	return rep
}

// Run executes a generation run end to end: profile the baseline suite,
// sample spec.N directed synthetic profiles, realize each through
// Synthesize → Validate, and report requested vs. achieved features with
// coverage before and after. The whole report is a StageGenerate artifact
// cached under the spec's fingerprint and the pipeline's options, so a
// warm rerun of the same spec over the same store computes nothing, and
// the report bytes are identical for a fixed spec regardless of worker
// count.
func Run(ctx context.Context, p *pipeline.Pipeline, spec *Spec) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	data, err := p.GenerateArtifact(ctx, spec.Fingerprint(), func(ctx context.Context) ([]byte, error) {
		rep, err := run(ctx, p, spec)
		if err != nil {
			return nil, err
		}
		return json.Marshal(rep)
	})
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("generate: bad cached report: %w", err)
	}
	return &rep, nil
}

// run is the uncached generation flow behind Run.
func run(ctx context.Context, p *pipeline.Pipeline, spec *Spec) (*Report, error) {
	points, baseline, err := samplePoints(ctx, p, spec)
	if err != nil {
		return nil, err
	}
	// Realization fans out on the pipeline pool; Map preserves order, so
	// the report is deterministic for any worker count.
	reports, err := pipeline.Map(ctx, p, points,
		func(ctx context.Context, sp SampledPoint) (PointReport, error) {
			return realizePoint(ctx, p, sp), nil
		})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Name:          spec.name(),
		SpecDigest:    spec.Fingerprint(),
		Seed:          spec.Seed,
		Baseline:      Analyze(baseline),
		Points:        reports,
		MinSeparation: math.Inf(1),
	}
	after := append([]Features(nil), baseline...)
	var errSum float64
	for i := range rep.Points {
		pt := &rep.Points[i]
		if pt.Reject != "" {
			rep.Rejected++
			continue
		}
		pt.Separation = nearestDistance(pt.Achieved, baseline)
		rep.Accepted++
		errSum += pt.Err
		if pt.Err > rep.MaxErr {
			rep.MaxErr = pt.Err
		}
		if pt.Separation < rep.MinSeparation {
			rep.MinSeparation = pt.Separation
		}
		after = append(after, pt.Achieved)
	}
	if rep.Accepted > 0 {
		rep.MeanErr = errSum / float64(rep.Accepted)
	} else {
		rep.MinSeparation = 0
	}
	rep.After = Analyze(after)
	return rep, nil
}

// RealizePoint realizes exactly one sampled point of a spec — the unit a
// cluster generate job executes. The sampler is deterministic, so every
// worker derives the identical point list and realizes only its index;
// the synthesis artifact lands in the shared store, where the
// dispatcher's final Run (or any explore consumer) finds it warm.
func RealizePoint(ctx context.Context, p *pipeline.Pipeline, spec *Spec, index int) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if index < 0 || index >= spec.N {
		return fmt.Errorf("generate: point index %d out of range 0-%d", index, spec.N-1)
	}
	points, _, err := samplePoints(ctx, p, spec)
	if err != nil {
		return err
	}
	pt := realizePoint(ctx, p, points[index])
	if pt.Reject != "" {
		return fmt.Errorf("generate: point %s: %s", pt.Name, pt.Reject)
	}
	return nil
}

// Corpus materializes a run's accepted points as registrable workloads:
// each clone's HLC source becomes a self-contained workload named
// "gen/<point>", ready for workloads.Register and consumption by `synth
// explore`. Rejected points are skipped.
func Corpus(ctx context.Context, p *pipeline.Pipeline, spec *Spec) ([]*workloads.Workload, error) {
	rep, err := Run(ctx, p, spec)
	if err != nil {
		return nil, err
	}
	var out []*workloads.Workload
	for _, pt := range rep.Points {
		if pt.Reject != "" || pt.Source == "" {
			continue
		}
		out = append(out, &workloads.Workload{
			Name:   "gen/" + pt.Name,
			Bench:  "gen/" + rep.Name,
			Source: pt.Source,
		})
	}
	return out, nil
}
