package compiler_test

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/hlc"
	"repro/internal/isa"
)

// BenchmarkCompile is the compiler's layer benchmark: one op compiles every
// quick-suite clone for all three ISAs at one level. Clones are the large
// programs of the experiments (functions of hundreds of blocks), so this is
// where a superlinear pass shows. They are synthesized once, untimed.
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
					for _, target := range []*isa.Desc{isa.X86, isa.AMD64, isa.IA64} {
						if _, err := compiler.Compile(cp, target, level); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}
