package vm_test

// Interpreter microbenchmarks. The three dispatch benchmarks report
// instructions-per-second through the "instrs/s" custom metric, so
// `go test -bench . ./internal/vm` gives the raw dispatch-loop throughput;
// the benchmark ledger reports the fast and hooked layers as vm.fast_mips
// and vm.hooked_mips. All run the one dispatch loop: the fast benchmark
// untraced (validation), the traced one with a consumer that counts sites
// and addresses, the floor of every instrumented consumer, and the hooked
// one with an empty hook on the per-instruction view expanded from the
// trace. BenchmarkVMLoad measures the loader.

import (
	"context"
	"testing"

	"repro/internal/compiler"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func benchmarkVM(b *testing.B, cfg vm.Config) {
	w, prog := compileWorkload(b, "crc32/small", compiler.O0)
	b.ReportAllocs()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m := vm.New(prog)
		if err := w.Setup(m); err != nil {
			b.Fatal(err)
		}
		res, err := m.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.DynInstrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

func BenchmarkVMFast(b *testing.B)   { benchmarkVM(b, vm.Config{}) }
func BenchmarkVMHooked(b *testing.B) { benchmarkVM(b, vm.Config{Hook: func(*vm.Event) {}}) }

func BenchmarkVMTraced(b *testing.B) {
	var sites, addrs uint64
	benchmarkVM(b, vm.Config{Trace: func(t *vm.Trace) {
		for _, sg := range t.Segs {
			sites += uint64(sg.N)
		}
		addrs += uint64(len(t.Addrs))
	}})
	if sites == 0 || addrs == 0 {
		b.Fatalf("trace recorded %d sites and %d addresses", sites, addrs)
	}
}

// BenchmarkVMLoad is the loader's benchmark: one op is one vm.New of the
// qsort/large clone at the experiments' seed, compiled at -O0 (25
// functions, ~23k static instructions, the largest quick-suite clone), as
// every calibration measurement and profiling pass loads its program. The
// clone is synthesized and compiled once, untimed.
func BenchmarkVMLoad(b *testing.B) {
	cl, err := pipeline.New(pipeline.Options{Seed: experiments.CloneSeed}).
		Synthesize(context.Background(), workloads.ByName("qsort/large"))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := compiler.Compile(cl.Checked, isa.AMD64, compiler.O0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loaded = vm.New(prog)
	}
}

// loaded keeps BenchmarkVMLoad's result live.
var loaded *vm.VM
