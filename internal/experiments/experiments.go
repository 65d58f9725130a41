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
	"reflect"
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

// point is one (target, level) at which workloads and clones are compiled.
type point struct {
	target *isa.Desc
	level  compiler.OptLevel
}

// at returns the points of one target at the given levels.
func at(target *isa.Desc, levels ...compiler.OptLevel) []point {
	var out []point
	for _, level := range levels {
		out = append(out, point{target, level})
	}
	return out
}

// cell is one workload at one point: one program pair.
type cell struct {
	point
	w *workloads.Workload
}

// run is one distinct program to measure: a workload's original (run with
// its setup) or its clone, compiled for target. Cells whose builds are
// identical share a run; an -O3 build that inlines nothing equals its -O2
// build.
type run struct {
	target *isa.Desc
	w      *workloads.Workload
	clone  bool
	prog   *isa.Program
}

// runsOf makes one run per distinct (target, workload, original | clone,
// program) of the cells' pairs, in first-use order, and returns it with
// each cell's original and clone run indices. Programs are the same when
// they are one pointer or reflect.DeepEqual: exact identity, so a shared
// run measures exactly what each of its cells would have measured.
func runsOf(cells []cell, pairs []pipeline.Pair) ([]run, [][2]int) {
	var runs []run
	of := make([][2]int, len(cells))
	for i, c := range cells {
		for side, prog := range [2]*isa.Program{pairs[i].Orig, pairs[i].Syn} {
			r := run{target: c.target, w: c.w, clone: side == 1, prog: prog}
			k := slices.IndexFunc(runs, func(o run) bool {
				return o.target == r.target && o.w == r.w && o.clone == r.clone &&
					(o.prog == prog || reflect.DeepEqual(o.prog, prog))
			})
			if k < 0 {
				k = len(runs)
				runs = append(runs, r)
			}
			of[i][side] = k
		}
	}
	return runs, of
}

// measurePairs is the evaluation's one method: it compiles each workload
// and its clone at each point, measures the original with its inputs and
// the clone without, and returns out[p][w] for points[p] and suite[w], in
// suite order. It resolves every cell's pair first (one PairAt per cell),
// then measures each distinct program once (one pool job per run); cells
// that share a run share its value, so measure's results are read only.
func measurePairs[T any](ctx context.Context, p *pipeline.Pipeline, suite []*workloads.Workload,
	points []point, measure func(*isa.Program, func(*vm.VM) error) (T, error)) ([][]pair[T], error) {
	var cells []cell
	for _, pt := range points {
		for _, w := range suite {
			cells = append(cells, cell{pt, w})
		}
	}
	pairs, err := pipeline.Map(ctx, p, cells, func(ctx context.Context, c cell) (pipeline.Pair, error) {
		return p.PairAt(ctx, c.w, c.target, c.level)
	})
	if err != nil {
		return nil, err
	}
	runs, of := runsOf(cells, pairs)
	vals, err := pipeline.Map(ctx, p, runs, func(_ context.Context, r run) (T, error) {
		setup, what := r.w.Setup, r.w.Name
		if r.clone {
			setup, what = nil, what+" clone"
		}
		v, err := measure(r.prog, setup)
		if err != nil {
			return v, fmt.Errorf("%s on %s: %w", what, r.target.Name, err)
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]pair[T], len(points))
	for i, c := range of {
		pi := i / len(suite)
		out[pi] = append(out[pi], pair[T]{vals[c[0]], vals[c[1]]})
	}
	return out, nil
}

// runProgram executes a loaded program with an optional setup and trace
// consumer.
func runProgram(m *vm.VM, setup func(*vm.VM) error, trace func(*vm.Trace)) (vm.Result, error) {
	if setup != nil {
		if err := setup(m); err != nil {
			return vm.Result{}, err
		}
	}
	return m.Run(vm.Config{Trace: trace, MaxInstrs: 200_000_000})
}
