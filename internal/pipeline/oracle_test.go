package pipeline_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/compiler"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestCloneGridOracle uses every quick-suite clone as a compiler test: a
// clone is one deterministic program, so each (ISA, level) it compiles to
// must print the same values. A divergence is a miscompilation (or a VM
// bug) on the point that disagrees with x86v -O0. The grid multiplies each
// clone's compile and run by 12, which is why it is a test and not part of
// every Pipeline.Validate.
func TestCloneGridOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes and runs the quick suite's clones on 12 compilation points")
	}
	ctx := context.Background()
	p := pipeline.New(pipeline.Options{Seed: experiments.CloneSeed})
	diffs, err := pipeline.Map(ctx, p, experiments.Quick(), func(ctx context.Context, w *workloads.Workload) ([]string, error) {
		var diffs []string
		var ref vm.Result
		for _, target := range []*isa.Desc{isa.X86, isa.AMD64, isa.IA64} {
			for _, level := range compiler.Levels {
				prog, err := p.CompileClone(ctx, w, target, level)
				if err != nil {
					return nil, err
				}
				res, err := vm.New(prog).Run(vm.Config{})
				if err != nil {
					return nil, fmt.Errorf("%s clone on %s %v: %w", w.Name, target.Name, level, err)
				}
				if target == isa.X86 && level == compiler.O0 {
					ref = res
				} else if res.OutputHash != ref.OutputHash || res.Prints != ref.Prints {
					diffs = append(diffs, fmt.Sprintf("%s clone on %s %v: %d prints, hash %#x; x86v -O0: %d prints, hash %#x",
						w.Name, target.Name, level, res.Prints, res.OutputHash, ref.Prints, ref.OutputHash))
				}
			}
		}
		return diffs, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		for _, msg := range d {
			t.Error(msg)
		}
	}
}
