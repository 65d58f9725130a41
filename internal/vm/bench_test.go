package vm_test

// Interpreter microbenchmarks. Both report instructions-per-second through
// the "instrs/s" custom metric, so `go test -bench . ./internal/vm` gives
// the raw dispatch-loop throughput; the benchmark ledger reports the same
// layer as vm.fast_mips and vm.hooked_mips. Both run the one dispatch
// loop: the fast benchmark with no hook (validation), the hooked one with
// an empty hook, the floor of every instrumented consumer.

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/vm"
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
