package pipeline_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/compiler"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// cloneSourceDigests pins each quick-suite clone's HLC source at the
// experiments' seed (FNV-64a of Clone.Source), recorded on linux/amd64.
// A change that alters clone bytes on purpose refreshes the table along
// with the store schema; any other change must leave it alone.
var cloneSourceDigests = map[string]string{
	"adpcm/small1":       "f7063cdc076ba274",
	"basicmath/small":    "641c2fff124f4801",
	"bitcount/small":     "20c64adbd328a4e0",
	"crc32/small":        "523eae7eab0b03c7",
	"dijkstra/small":     "f0eeb8f3f02ba21f",
	"fft/small1":         "8404aa475bcc1ecf",
	"gsm/small1":         "234ef479f2bc5e31",
	"jpeg/large1":        "9a6db336ef041822",
	"patricia/small":     "c91f5aef96939793",
	"qsort/large":        "cc906f6b82ba18bb",
	"sha/small":          "66c7e36d9c8c7f73",
	"stringsearch/small": "c0fee8aad869abcf",
	"susan/small2":       "f9fd4aa0767190b3",
}

// TestCloneGridOracle uses every quick-suite clone as a compiler test: a
// clone is one deterministic program, so each (ISA, level) it compiles to
// must print the same values. A divergence is a miscompilation (or a VM
// bug) on the point that disagrees with x86v -O0. The grid multiplies each
// clone's compile and run by 12, which is why it is a test and not part of
// every Pipeline.Validate. On amd64 it also checks every clone's source
// against cloneSourceDigests.
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

	// Synthesis calibrates on float arithmetic, and other architectures
	// may fuse multiply-adds into FMA instructions that round differently,
	// so the same seed can give other (equally valid) clone bytes there.
	if runtime.GOARCH != "amd64" {
		t.Logf("clone digests are recorded on amd64; not checked on %s", runtime.GOARCH)
		return
	}
	for _, w := range experiments.Quick() {
		cl, err := p.Synthesize(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write([]byte(cl.Source))
		if got := fmt.Sprintf("%016x", h.Sum64()); got != cloneSourceDigests[w.Name] {
			t.Errorf("%s clone source digest %s, want %s", w.Name, got, cloneSourceDigests[w.Name])
		}
	}
}
