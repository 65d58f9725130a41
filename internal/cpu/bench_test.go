package cpu_test

// BenchmarkSimulateMany is the timing models' layer benchmark. One op is
// one cpu.SimulateMany of the sha/small original, compiled at -O2 for the
// group's ISA (untimed), on one machine group:
//
//   - ooo: the Core 2 and the Core i7 on amd64v, Fig. 11's out-of-order group;
//   - epic: the Itanium 2 on ia64v, the EPIC model;
//   - sweep8: the calibration sweep's first 8 design points, as explore times
//     a program.
//
// instrs/s counts each simulated program instruction once per op, however
// many configs time it, so it reads the cost of one interpretation plus
// all of its back ends.

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/explore"
	"repro/internal/workloads"
)

func BenchmarkSimulateMany(b *testing.B) {
	w := workloads.ByName("sha/small")
	sw, err := explore.Calibration().Resolve()
	if err != nil {
		b.Fatal(err)
	}
	var sweep []cpu.Config
	for _, pt := range sw.Points[:8] {
		sweep = append(sweep, pt.Config())
	}
	for _, bc := range []struct {
		name string
		cfgs []cpu.Config
	}{
		{"ooo", []cpu.Config{cpu.Core2, cpu.CoreI7}},
		{"epic", []cpu.Config{cpu.Itanium2}},
		{"sweep8", sweep},
	} {
		b.Run(bc.name, func(b *testing.B) {
			prog := compileWorkload(b, w, bc.cfgs[0].ISA)
			b.ReportAllocs()
			b.ResetTimer()
			var instrs uint64
			for i := 0; i < b.N; i++ {
				sums, err := cpu.SimulateMany(prog, w.Setup, bc.cfgs, 0)
				if err != nil {
					b.Fatal(err)
				}
				instrs += sums[0].Instrs
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
		})
	}
}
