package cpu_test

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/hlc"
	"repro/internal/isa"
)

// TestTimingMetamorphicInvariants checks relations every timing result
// must satisfy whatever the exact cycle counts, over the quick suite, the
// Table III machines, and -O0/-O2/-O3. Each machine m is timed beside a
// copy with L2 and memory latency doubled, in one SimulateMany call per
// ISA:
//   - out of order: m dispatches at most Width instructions a cycle, so
//     Cycles*Width >= Instrs;
//   - both models: slower memory never reports fewer cycles.
func TestTimingMetamorphicInvariants(t *testing.T) {
	byISA := map[*isa.Desc][]cpu.Config{}
	var targets []*isa.Desc
	for _, m := range cpu.Machines {
		slow := m
		slow.Name += " (slow memory)"
		slow.L2Lat *= 2
		slow.MemLat *= 2
		if byISA[m.ISA] == nil {
			targets = append(targets, m.ISA)
		}
		byISA[m.ISA] = append(byISA[m.ISA], m, slow)
	}
	for _, w := range experiments.Quick() {
		cp, err := hlc.Check(mustParse(t, w))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, target := range targets {
			for _, level := range []compiler.OptLevel{compiler.O0, compiler.O2, compiler.O3} {
				prog, err := compiler.Compile(cp, target, level)
				if err != nil {
					t.Fatalf("%s %s -O%d: %v", w.Name, target.Name, level, err)
				}
				cfgs := byISA[target]
				res, err := cpu.SimulateMany(prog, w.Setup, cfgs, 0)
				if err != nil {
					t.Fatalf("%s %s -O%d: %v", w.Name, target.Name, level, err)
				}
				for i := 0; i < len(cfgs); i += 2 {
					m, base, slow := cfgs[i], res[i], res[i+1]
					if !m.ISA.EPIC && base.Cycles*uint64(m.Width) < base.Instrs {
						t.Errorf("%s -O%d on %s: %d cycles × width %d < %d instructions",
							w.Name, level, m.Name, base.Cycles, m.Width, base.Instrs)
					}
					if slow.Cycles < base.Cycles {
						t.Errorf("%s -O%d on %s: doubling L2/memory latency cut cycles %d → %d",
							w.Name, level, m.Name, base.Cycles, slow.Cycles)
					}
				}
			}
		}
	}
}
