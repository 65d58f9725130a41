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
	"fmt"

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

// runProgram executes a loaded program with an optional setup and hook.
func runProgram(m *vm.VM, setup func(*vm.VM) error, hook vm.Hook) (vm.Result, error) {
	if setup != nil {
		if err := setup(m); err != nil {
			return vm.Result{}, err
		}
	}
	return m.Run(vm.Config{Hook: hook, MaxInstrs: 200_000_000})
}
