package compiler_test

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/profile"
)

// BenchmarkCompile is the compiler's layer benchmark over the quick-suite
// clones, the large programs of the experiments (functions of hundreds of
// blocks), so this is where a superlinear pass shows. They are synthesized
// once, untimed. One op of a level's sub-benchmark compiles every clone
// for all three ISAs the way the pipeline builds the ISA × level grid: one
// Optimize and three Target calls per clone. One op of "calibration"
// compiles every clone once at the profiling point, as each synthesis
// attempt does.
func BenchmarkCompile(b *testing.B) {
	progs, err := quickPrograms()
	if err != nil {
		b.Fatal(err)
	}
	var clones []*hlc.CheckedProgram
	for _, pr := range progs {
		if pr.clone {
			clones = append(clones, pr.cp)
		}
	}
	for _, level := range compiler.Levels {
		b.Run(level.String()[1:], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, cp := range clones {
					o, err := compiler.Optimize(cp, level)
					if err != nil {
						b.Fatal(err)
					}
					for _, target := range []*isa.Desc{isa.X86, isa.AMD64, isa.IA64} {
						if _, err := o.Target(target); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
	b.Run("calibration", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, cp := range clones {
				if _, err := compiler.Compile(cp, profile.Target, profile.Level); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
