// Package pipeline models the paper's framework as typed, composable
// stages — Parse → Check → Compile → Profile → Synthesize → Validate —
// executed by a bounded worker pool over the workload × ISA × optimization
// level cross product, with an in-memory content-addressed artifact cache
// so each compile and each profile is computed once and shared across every
// experiment that needs it.
//
// The seed repository ran the same flow as ad-hoc sequential loops with
// private compile/profile helpers duplicated through internal/experiments;
// this package is the orchestration layer those experiments (and cmd/synth)
// now submit declarative jobs to. Every stage takes a context.Context and
// returns structured *StageError failures, cancellation is observed at
// stage boundaries and between fan-out jobs, and results are deterministic
// for a fixed seed regardless of worker count.
package pipeline

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Options configures a Pipeline.
type Options struct {
	// Workers bounds the fan-out pool (0 = GOMAXPROCS).
	Workers int
	// Seed drives clone synthesis; equal seeds reproduce clones exactly.
	Seed int64
	// Store, when non-nil, adds a persistent tier under the artifact
	// cache: memory misses probe the backend first, and computed artifacts
	// are written through under a cross-process in-progress marker, so
	// separate processes sharing one backend — a store directory, or a
	// `synth serve` node reached over HTTP — never duplicate a compile,
	// profile, or synthesis. Off by default (nil = memory-only caching,
	// the pre-store behavior). Callers holding a concrete backend pointer
	// must take care not to store a typed nil here; pass a literal nil.
	Store store.Backend
	// Metrics, when non-nil, receives the pipeline's cache and per-stage
	// metrics (synth_pipeline_*), read from the counters CacheStats
	// reports. A scrape sums every pipeline on the registry, so it equals
	// this pipeline's CacheStats when no other shares it. Nil disables
	// metric recording at zero cost.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records one span per artifact computation,
	// named after the stage and nested along the stage dataflow (a cold
	// synthesize span contains profile, compile, check, and parse spans).
	// Nil disables tracing at zero cost.
	Tracer *telemetry.Tracer
}

// Pipeline executes framework stages with caching and bounded parallelism.
// It is safe for concurrent use; experiments running in parallel share one
// pipeline and therefore one artifact cache.
type Pipeline struct {
	opts   Options
	cache  *artifactCache
	middle *middleEnds
}

// New builds a pipeline. Every pipeline profiles at the profiling point
// (profile.Target, profile.Level, profile.DefaultCache); the zero Options
// value adds GOMAXPROCS workers and seed 0.
func New(opts Options) *Pipeline {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return &Pipeline{opts: opts,
		cache:  newArtifactCache(opts.Store, opts.Metrics, opts.Tracer),
		middle: newMiddleEnds()}
}

// Workers returns the fan-out bound.
func (p *Pipeline) Workers() int { return p.opts.Workers }

// Seed returns the synthesis seed.
func (p *Pipeline) Seed() int64 { return p.opts.Seed }

// CacheStats reports artifact-cache hit/miss counts so far.
func (p *Pipeline) CacheStats() CacheStats { return p.cache.n.stats() }

// Clone bundles every artifact of one synthesized benchmark.
type Clone struct {
	Checked *hlc.CheckedProgram
	Report  core.Report
	Source  string
}

// Pair holds the original and synthetic programs compiled for one
// (workload, ISA, level) point, plus the clone artifacts.
type Pair struct {
	Orig  *isa.Program
	Syn   *isa.Program
	Clone *Clone
}

func (p *Pipeline) fail(s Stage, w string, err error) *StageError {
	return &StageError{Stage: s, Workload: w, Err: err}
}

// Parse runs the Parse stage: workload source to AST.
func (p *Pipeline) Parse(ctx context.Context, w *workloads.Workload) (*hlc.Program, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v, err := p.cache.do(ctx, Key{Stage: StageParse, Workload: w.Name}, func(context.Context) (any, error) {
		prog, err := hlc.Parse(w.Source)
		if err != nil {
			return nil, p.fail(StageParse, w.Name, err)
		}
		return prog, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*hlc.Program), nil
}

// Check runs the Check stage: AST to typed program.
func (p *Pipeline) Check(ctx context.Context, w *workloads.Workload) (*hlc.CheckedProgram, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v, err := p.cache.do(ctx, Key{Stage: StageCheck, Workload: w.Name}, func(ctx context.Context) (any, error) {
		prog, err := p.Parse(ctx, w)
		if err != nil {
			return nil, err
		}
		cp, err := hlc.Check(prog)
		if err != nil {
			return nil, p.fail(StageCheck, w.Name, err)
		}
		return cp, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*hlc.CheckedProgram), nil
}

// Compile runs the Compile stage for the original workload at one
// (ISA, level) point.
func (p *Pipeline) Compile(ctx context.Context, w *workloads.Workload, target *isa.Desc, level compiler.OptLevel) (*isa.Program, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := compileKey(w, target, level)
	v, err := p.cache.do(ctx, key, func(ctx context.Context) (any, error) {
		cp, err := p.Check(ctx, w)
		if err != nil {
			return nil, err
		}
		out, err := p.middle.compile(ctx, key, cp, target)
		if err != nil {
			return nil, &StageError{Stage: StageCompile, Workload: w.Name,
				ISA: target.Name, Level: level, Err: err}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*isa.Program), nil
}

// Profile runs the Profile stage: execute the workload compiled at the
// profiling point under instrumentation and build its SFGL.
func (p *Pipeline) Profile(ctx context.Context, w *workloads.Workload) (*profile.Profile, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v, err := p.cache.do(ctx, profileKey(w), func(ctx context.Context) (any, error) {
		prog, err := p.Compile(ctx, w, profile.Target, profile.Level)
		if err != nil {
			return nil, err
		}
		prof, err := profile.Collect(prog, w.Setup, w.Name)
		if err != nil {
			return nil, p.fail(StageProfile, w.Name, err)
		}
		return prof, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*profile.Profile), nil
}

// srcID fingerprints a workload's HLC source for persistent cache keys.
func srcID(w *workloads.Workload) string {
	return store.Fingerprint([]byte(w.Source))
}

// compileKey keys the original workload compiled at one (ISA, level)
// point: the Compile stage and PairKeys both build it here.
func compileKey(w *workloads.Workload, target *isa.Desc, level compiler.OptLevel) Key {
	return Key{Stage: StageCompile, Workload: w.Name, ISA: target.Name, Level: level,
		Src: srcID(w)}
}

// profileKey keys the workload's profile, taken at the profiling point.
func profileKey(w *workloads.Workload) Key {
	return Key{Stage: StageProfile, Workload: w.Name, ISA: profile.Target.Name,
		Level: profile.Level, Src: srcID(w)}
}

// cloneKey keys a stage-s artifact derived from the workload's clone: the
// profiling point plus the synthesis seed. Stages that compile or run the
// clone elsewhere (CompileClone, Simulate) overwrite ISA and Level.
func (p *Pipeline) cloneKey(s Stage, w *workloads.Workload) Key {
	return Key{Stage: s, Workload: w.Name, ISA: profile.Target.Name,
		Level: profile.Level, Seed: p.opts.Seed, Clone: true, Src: srcID(w)}
}

// Synthesize runs the Synthesize stage: profile to benchmark clone.
func (p *Pipeline) Synthesize(ctx context.Context, w *workloads.Workload) (*Clone, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v, err := p.cache.do(ctx, p.cloneKey(StageSynthesize, w), func(ctx context.Context) (any, error) {
		prof, err := p.Profile(ctx, w)
		if err != nil {
			return nil, err
		}
		cl, err := p.synthesizeClone(prof, w.Name)
		if err != nil {
			return nil, err
		}
		return cl, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Clone), nil
}

// synthesizeClone runs the synthesis core on a profile and packages the
// result, shared by Synthesize and SynthesizeProfile.
func (p *Pipeline) synthesizeClone(prof *profile.Profile, workload string) (*Clone, error) {
	cp, rep, err := core.Synthesize(prof, core.Config{Seed: p.opts.Seed})
	if err != nil {
		return nil, &StageError{Stage: StageSynthesize, Workload: workload, Clone: true, Err: err}
	}
	return &Clone{
		Checked: cp,
		Report:  rep,
		Source:  hlc.Print(cp.Prog),
	}, nil
}

// SynthesizeProfile runs the Synthesize stage on an externally supplied
// profile — one loaded from disk (`synth synthesize -from`) or merged by
// core.Consolidate — instead of a named workload. The artifact is cached
// and persisted under the profile's content fingerprint, so repeated
// synthesis from the same saved profile is as incremental as the named
// flow.
func (p *Pipeline) SynthesizeProfile(ctx context.Context, prof *profile.Profile) (*Clone, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if prof == nil || prof.Graph == nil {
		return nil, p.fail(StageSynthesize, "(profile)", fmt.Errorf("nil profile"))
	}
	payload, err := codecs[StageProfile].encode(prof)
	if err != nil {
		return nil, p.fail(StageSynthesize, prof.Workload, err)
	}
	key := p.cloneKey(StageSynthesize, &workloads.Workload{
		Name: "profile:" + store.Fingerprint(payload),
	})
	v, err := p.cache.do(ctx, key, func(context.Context) (any, error) {
		return p.synthesizeClone(prof, prof.Workload)
	})
	if err != nil {
		return nil, err
	}
	return v.(*Clone), nil
}

// GenerateArtifact runs the Generate stage: it returns the cached
// generation report stored under the given spec fingerprint, computing it
// with the supplied function on a miss. The payload is opaque JSON —
// the generate package owns the report schema — but the key carries the
// profiling point and the seed, which shape generated clones, so two
// pipelines sharing a store with different seeds never exchange reports.
// Failed computations are not cached.
func (p *Pipeline) GenerateArtifact(ctx context.Context, fingerprint string, compute func(context.Context) ([]byte, error)) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := Key{Stage: StageGenerate, Workload: "generate:" + fingerprint,
		ISA: profile.Target.Name, Level: profile.Level,
		Seed: p.opts.Seed}
	v, err := p.cache.do(ctx, key, func(ctx context.Context) (any, error) {
		data, err := compute(ctx)
		if err != nil {
			return nil, p.fail(StageGenerate, fingerprint, err)
		}
		return data, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]byte), nil
}

// CompileClone compiles the workload's synthetic clone for one
// (ISA, level) point.
func (p *Pipeline) CompileClone(ctx context.Context, w *workloads.Workload, target *isa.Desc, level compiler.OptLevel) (*isa.Program, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := p.cloneKey(StageCompile, w)
	key.ISA, key.Level = target.Name, level
	v, err := p.cache.do(ctx, key, func(ctx context.Context) (any, error) {
		cl, err := p.Synthesize(ctx, w)
		if err != nil {
			return nil, err
		}
		out, err := p.middle.compile(ctx, key, cl.Checked, target)
		if err != nil {
			return nil, &StageError{Stage: StageCompile, Workload: w.Name,
				ISA: target.Name, Level: level, Clone: true, Err: err}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*isa.Program), nil
}

// validateBudget bounds the Validate stage's execution of the clone.
const validateBudget = 4_000_000

// Validate runs the Validate stage: the clone must compile at the
// profiling point and execute on its own (clones are self-contained and
// need no inputs), producing a nonzero dynamic instruction count.
func (p *Pipeline) Validate(ctx context.Context, w *workloads.Workload) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, err := p.cache.do(ctx, p.cloneKey(StageValidate, w), func(ctx context.Context) (any, error) {
		prog, err := p.CompileClone(ctx, w, profile.Target, profile.Level)
		if err != nil {
			return nil, err
		}
		res, err := vm.New(prog).Run(vm.Config{MaxInstrs: validateBudget})
		if err != nil {
			if t, ok := err.(*vm.Trap); !ok || t.Reason != vm.TrapBudgetExhausted {
				return nil, &StageError{Stage: StageValidate, Workload: w.Name, Clone: true, Err: err}
			}
		}
		if res.DynInstrs == 0 {
			return nil, &StageError{Stage: StageValidate, Workload: w.Name, Clone: true,
				Err: fmt.Errorf("clone executed no instructions")}
		}
		return struct{}{}, nil
	})
	return err
}

// PairKeys returns the keys of every artifact a PairAt(w, target, level)
// job persists to a store: the original compile at the job point, the
// compile at the profiling point (when distinct), the profile, the
// synthesized clone, and the clone compile at the job point. A caller
// holding a store can therefore decide — without running anything — whether
// the job's work already exists, by probing each key's Digest, StoreKind,
// and Canonical; the cluster coordinator uses exactly this to deduplicate
// dispatched jobs against prior runs. The construction mirrors Compile,
// Profile, Synthesize, and CompileClone; TestPairKeysMatchStoredDigests
// guards against drift.
func (p *Pipeline) PairKeys(w *workloads.Workload, target *isa.Desc, level compiler.OptLevel) []Key {
	orig := compileKey(w, target, level)
	keys := []Key{orig}
	if profCompile := compileKey(w, profile.Target, profile.Level); profCompile != orig {
		keys = append(keys, profCompile)
	}
	keys = append(keys, profileKey(w), p.cloneKey(StageSynthesize, w))
	cloneCompile := p.cloneKey(StageCompile, w)
	cloneCompile.ISA, cloneCompile.Level = target.Name, level
	keys = append(keys, cloneCompile)
	return keys
}

// PairAt compiles both the original and the clone for one (ISA, level)
// point, sharing profile and synthesis work through the cache.
func (p *Pipeline) PairAt(ctx context.Context, w *workloads.Workload, target *isa.Desc, level compiler.OptLevel) (Pair, error) {
	cl, err := p.Synthesize(ctx, w)
	if err != nil {
		return Pair{}, err
	}
	orig, err := p.Compile(ctx, w, target, level)
	if err != nil {
		return Pair{}, err
	}
	syn, err := p.CompileClone(ctx, w, target, level)
	if err != nil {
		return Pair{}, err
	}
	return Pair{Orig: orig, Syn: syn, Clone: cl}, nil
}
