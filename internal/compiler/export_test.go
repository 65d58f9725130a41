package compiler

import (
	"slices"

	"repro/internal/isa"
)

// Internals driven by the external tests in package compiler_test. Those
// tests take their inputs from synthesized clones, and an internal test
// importing the synthesizer would be an import cycle.
var (
	MapUses      = mapUses
	ScheduleEPIC = scheduleEPIC
)

// Liveness returns liveness's per-block live-in and live-out sets as
// register lists in ascending order.
func Liveness(f *isa.Func) (in, out [][]isa.RegID) {
	l := liveness(f)
	regs := func(s bitset) []isa.RegID {
		var rs []isa.RegID
		l.forEach(s, func(r isa.RegID) { rs = append(rs, r) })
		slices.Sort(rs)
		return rs
	}
	for b := range f.Blocks {
		in, out = append(in, regs(l.in(b))), append(out, regs(l.out(b)))
	}
	return in, out
}
