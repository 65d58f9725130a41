// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V): each Runner method (Fig4 … Fig11, TableII,
// Obfuscation) runs the corresponding measurement over the workload suite
// and its synthetic clones and returns printable rows. `synth experiments`,
// `synth serve`, and the benchmark ledger render them; EXPERIMENTS.md
// records paper-vs-measured values.
//
// All measurement plumbing routes through internal/pipeline: a Runner
// (NewRunner) submits declarative jobs (workload × ISA × level points) to
// the pipeline it wraps, whose artifact cache computes each compile,
// profile, and clone once across every experiment, and whose worker pool
// fans the jobs out. CloneSeed is the default clone seed of that pipeline
// in the CLI and the ledger.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/compiler"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// CloneSeed is the fixed seed used for every clone in the experiments, so
// results are reproducible run to run.
const CloneSeed = 20100321 // IISWC 2010 paper vintage

// Suite selection: Full is every workload/input pair of Fig. 4; Quick is a
// representative subset (the small inputs plus the single-variant
// benchmarks) used by the per-machine sweeps where the full cross product
// would dominate test time.
func Full() []*workloads.Workload { return workloads.All() }

// Tiny returns the three-workload smoke suite used by fast CI paths.
func Tiny() []*workloads.Workload {
	var out []*workloads.Workload
	for _, n := range []string{"crc32/small", "dijkstra/small", "fft/small1"} {
		if w := workloads.ByName(n); w != nil {
			out = append(out, w)
		}
	}
	return out
}

// Suite resolves a suite name — tiny, quick, or full — to its workload
// set. It is the single resolution path shared by the CLI, the HTTP
// service, and the exploration engine.
func Suite(name string) ([]*workloads.Workload, error) {
	switch name {
	case "tiny":
		return Tiny(), nil
	case "quick":
		return Quick(), nil
	case "full":
		return Full(), nil
	}
	return nil, fmt.Errorf("unknown suite %q (want tiny, quick, or full)", name)
}

// ErrUnknownWorkload is wrapped by Lookup's error for a name that no
// workload has.
var ErrUnknownWorkload = errors.New("unknown workload")

// Lookup returns the workload called name. It is the single name lookup of
// the CLI, the HTTP service and Resolve.
func Lookup(name string) (*workloads.Workload, error) {
	w := workloads.ByName(name)
	if w == nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownWorkload, name)
	}
	return w, nil
}

// Resolve returns a workload set: the suite's workloads (none when suite
// is empty) and the named ones, the suite's first unless namesFirst is
// set, each once where first seen. A bad suite fails before any name is
// looked up. It is the single resolution path of explore, generate and the
// HTTP batch endpoint.
func Resolve(suite string, names []string, namesFirst bool) ([]*workloads.Workload, error) {
	var fromSuite []*workloads.Workload
	if suite != "" {
		var err error
		if fromSuite, err = Suite(suite); err != nil {
			return nil, err
		}
	}
	var named []*workloads.Workload
	for _, n := range names {
		w, err := Lookup(n)
		if err != nil {
			return nil, err
		}
		named = append(named, w)
	}
	first, second := fromSuite, named
	if namesFirst {
		first, second = named, fromSuite
	}
	var out []*workloads.Workload
	seen := map[string]bool{}
	for _, w := range slices.Concat(first, second) {
		if !seen[w.Name] {
			seen[w.Name] = true
			out = append(out, w)
		}
	}
	return out, nil
}

// Quick returns the representative subset.
func Quick() []*workloads.Workload {
	names := []string{
		"adpcm/small1", "basicmath/small", "bitcount/small", "crc32/small",
		"dijkstra/small", "fft/small1", "gsm/small1", "jpeg/large1",
		"patricia/small", "qsort/large", "sha/small", "stringsearch/small",
		"susan/small2",
	}
	var out []*workloads.Workload
	for _, n := range names {
		if w := workloads.ByName(n); w != nil {
			out = append(out, w)
		}
	}
	return out
}

// Runner executes the paper's experiments through a pipeline. Every
// measurement is a job submission: the pipeline owns compilation,
// profiling, synthesis, caching, and fan-out, and the Runner only
// aggregates results (in suite order, so output is deterministic for any
// worker count).
type Runner struct {
	P *pipeline.Pipeline
}

// NewRunner wraps a pipeline in a Runner.
func NewRunner(p *pipeline.Pipeline) *Runner { return &Runner{P: p} }

// pair is one measurement of an original program and of its clone.
type pair[T any] struct{ orig, syn T }

// measurePairs is the evaluation's one method: it compiles each workload
// and its clone at the same (target, level) point, measures the original
// with its inputs and the clone without, and returns out[w][l] for
// suite[w] at levels[l], in suite order. Each workload is one pool job
// that loops over the levels.
func measurePairs[T any](ctx context.Context, p *pipeline.Pipeline, suite []*workloads.Workload,
	target *isa.Desc, measure func(*isa.Program, func(*vm.VM) error) (T, error),
	levels ...compiler.OptLevel) ([][]pair[T], error) {
	return pipeline.Map(ctx, p, suite, func(ctx context.Context, w *workloads.Workload) ([]pair[T], error) {
		out := make([]pair[T], len(levels))
		for l, level := range levels {
			progs, err := p.PairAt(ctx, w, target, level)
			if err != nil {
				return nil, err
			}
			if out[l].orig, err = measure(progs.Orig, w.Setup); err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			if out[l].syn, err = measure(progs.Syn, nil); err != nil {
				return nil, fmt.Errorf("%s clone: %w", w.Name, err)
			}
		}
		return out, nil
	})
}

// runProgram executes a loaded program with an optional setup and hook.
func runProgram(m *vm.VM, setup func(*vm.VM) error, hook vm.Hook) (vm.Result, error) {
	if setup != nil {
		if err := setup(m); err != nil {
			return vm.Result{}, err
		}
	}
	return m.Run(vm.Config{Hook: hook, MaxInstrs: 200_000_000})
}
