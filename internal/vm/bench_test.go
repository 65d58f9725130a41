package vm_test

// Interpreter microbenchmarks. The two dispatch benchmarks report
// instructions-per-second through the "instrs/s" custom metric, so
// `go test -bench . ./internal/vm` gives the raw dispatch-loop throughput;
// the benchmark ledger reports the same layer as vm.fast_mips and
// vm.hooked_mips. Both run the one dispatch loop: the fast benchmark with
// no hook (validation), the hooked one with an empty hook, the floor of
// every instrumented consumer. BenchmarkVMLoad measures the loader.

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

func benchmarkVM(b *testing.B, hook vm.Hook) {
	w, prog := compileWorkload(b, "crc32/small", compiler.O0)
	b.ReportAllocs()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m := vm.New(prog)
		if err := w.Setup(m); err != nil {
			b.Fatal(err)
		}
		res, err := m.Run(vm.Config{Hook: hook})
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.DynInstrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

func BenchmarkVMFast(b *testing.B)   { benchmarkVM(b, nil) }
func BenchmarkVMHooked(b *testing.B) { benchmarkVM(b, func(*vm.Event) {}) }

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
