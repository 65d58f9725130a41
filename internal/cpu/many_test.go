package cpu_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestSimulateManyMatchesSimulate requires one SimulateMany run to give,
// for every config, the result a separate Simulate call gives: the Table
// III machines grouped by ISA (plus the Fig. 10 cores on amd64v), the
// calibration sweep's design points, and a group mixing cache geometries
// and predictors, over the tiny suite, run to completion and under
// truncating instruction budgets. Results are compared as JSON bytes, the
// form the Simulate stage persists.
func TestSimulateManyMatchesSimulate(t *testing.T) {
	sw, err := explore.Calibration().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var calibration []cpu.Config
	for _, pt := range sw.Points {
		calibration = append(calibration, pt.Config())
	}
	groups := map[*isa.Desc][]cpu.Config{}
	for _, m := range cpu.Machines {
		groups[m.ISA] = append(groups[m.ISA], m)
	}
	for _, kb := range experiments.Fig10L1Sizes {
		groups[isa.AMD64] = append(groups[isa.AMD64], cpu.Simulated2Wide(kb))
	}
	type group struct {
		name      string
		cfgs      []cpu.Config
		maxInstrs uint64
	}
	var cases []group
	for _, target := range []*isa.Desc{isa.X86, isa.AMD64, isa.IA64} {
		cases = append(cases, group{"table3/" + target.Name, groups[target], 0})
	}
	// The 48 calibration points run under a budget, which keeps the test
	// affordable under -race and covers the truncated path on every point.
	cases = append(cases,
		group{"table3/amd64v/truncated", groups[isa.AMD64], 5_000},
		group{"calibration/truncated", calibration, 60_000},
		group{"mixed", mixedGroup(t), 0})

	for _, w := range experiments.Tiny() {
		progs := map[*isa.Desc]*isa.Program{}
		for _, c := range cases {
			target := c.cfgs[0].ISA
			if progs[target] == nil {
				progs[target] = compileWorkload(t, w, target)
			}
			prog := progs[target]
			many, err := cpu.SimulateMany(prog, w.Setup, c.cfgs, c.maxInstrs)
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name, c.name, err)
			}
			if len(many) != len(c.cfgs) {
				t.Fatalf("%s %s: %d results for %d configs", w.Name, c.name, len(many), len(c.cfgs))
			}
			for i, cfg := range c.cfgs {
				one, err := cpu.Simulate(prog, w.Setup, cfg, c.maxInstrs)
				if err != nil {
					t.Fatalf("%s %s %s: %v", w.Name, c.name, cfg.Name, err)
				}
				if c.maxInstrs > 0 && one.Instrs < c.maxInstrs {
					t.Fatalf("%s %s: finished in %d instructions, under the %d budget it should exhaust", w.Name, c.name, one.Instrs, c.maxInstrs)
				}
				a, b := mustJSON(t, one), mustJSON(t, many[i])
				if !bytes.Equal(a, b) {
					t.Fatalf("%s %s %s: SimulateMany differs from Simulate:\nmany %s\none  %s", w.Name, c.name, cfg.Name, b, a)
				}
			}
		}
	}
}

// TestSimulateManyRejectsLikeSimulate requires a group holding one config
// Simulate would reject to fail as a whole with Simulate's error for it.
func TestSimulateManyRejectsLikeSimulate(t *testing.T) {
	w := experiments.Tiny()[0]
	prog := compileWorkload(t, w, isa.AMD64)
	invalid := cpu.Core2
	invalid.L1Lat = 0
	for _, bad := range []cpu.Config{invalid, cpu.Pentium4_3000, cpu.Itanium2} {
		_, want := cpu.Simulate(prog, w.Setup, bad, 0)
		if want == nil {
			t.Fatalf("Simulate accepted %s", bad.Name)
		}
		res, err := cpu.SimulateMany(prog, w.Setup, []cpu.Config{cpu.Core2, bad, cpu.CoreI7}, 0)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s: SimulateMany returned %v (%d results), want %v", bad.Name, err, len(res), want)
		}
	}
}

// mixedGroup is one SimulateMany group that shares the front end
// unevenly: two L2 geometries crossed with the three predictors and two
// ROB sizes, so every (geometry, predictor) pair feeds two back ends.
// Point 0 is the 2-wide OoO baseline, whose empty Predictor shares the
// explicit hybrid's slot.
func mixedGroup(t *testing.T) []cpu.Config {
	t.Helper()
	sw, err := explore.Spec{
		Name: "mixed-front-end", Suite: "tiny", Base: "2-wide OoO",
		Axes: map[string][]any{
			"l2KB":      {64.0, 512.0},
			"predictor": {cpu.PredictorHybrid, cpu.PredictorBimodal, cpu.PredictorGShare},
			"rob":       {16.0, 64.0},
		},
	}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []cpu.Config
	for _, pt := range sw.Points {
		cfgs = append(cfgs, pt.Config())
	}
	if len(cfgs) != 12 {
		t.Fatalf("mixed group has %d configs, want 2×3×2 = 12", len(cfgs))
	}
	return cfgs
}

// TestSimulateFrontEndOracle checks the shared front end against an
// independent replay. Over the tiny suite, one SimulateMany group mixes
// two cache geometries and three predictors; every result's load and
// store statistics must equal those of a standalone cache.Hierarchy of
// its geometry fed every load and store of a plain hooked VM run in
// program order, and its branch counts must equal a standalone replay of
// its own predictor over the same run's branches.
func TestSimulateFrontEndOracle(t *testing.T) {
	cfgs := mixedGroup(t)
	for _, w := range experiments.Tiny() {
		prog := compileWorkload(t, w, isa.AMD64)
		res, err := cpu.SimulateMany(prog, w.Setup, cfgs, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}

		hiers := make([]*cache.Hierarchy, len(cfgs))
		preds := make([]bpred.Predictor, len(cfgs))
		mispredicts := make([]uint64, len(cfgs))
		for i, cfg := range cfgs {
			hiers[i] = &cache.Hierarchy{
				L1:    cache.New(cache.Config{Size: cfg.L1KB << 10, LineSize: 32, Assoc: cfg.L1Assoc}),
				L2:    cache.New(cache.Config{Size: cfg.L2KB << 10, LineSize: 32, Assoc: cfg.L2Assoc}),
				L1Lat: cfg.L1Lat, L2Lat: cfg.L2Lat, MemLat: cfg.MemLat,
			}
			preds[i] = cpu.PredictorByName(cfg.Predictor)()
		}
		var branches uint64
		m := vm.New(prog)
		lay := m.Layout()
		ops := make([]isa.Opcode, lay.NumSites())
		pcs := make([]uint64, lay.NumSites())
		lay.Walk(func(s int, loc vm.SiteLoc, in *isa.Instr) {
			ops[s], pcs[s] = in.Op, cpu.BranchPC(loc.Func, loc.Block, loc.Index)
		})
		if err := w.Setup(m); err != nil {
			t.Fatal(err)
		}
		_, err = m.Run(vm.Config{Hook: func(ev *vm.Event) {
			switch ops[ev.Site] {
			case isa.LD, isa.LDL:
				for _, h := range hiers {
					h.AccessLatency(ev.Addr)
				}
			case isa.ST, isa.STL:
				for _, h := range hiers {
					h.StoreLatency(ev.Addr)
				}
			case isa.BR:
				branches++
				pc := pcs[ev.Site]
				for i, p := range preds {
					if p.Predict(pc) != ev.Taken {
						mispredicts[i]++
					}
					p.Update(pc, ev.Taken)
				}
			}
		}})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}

		for i, cfg := range cfgs {
			r, h := res[i], hiers[i]
			want := [4]cache.Stats{h.L1.Stats, h.L2.Stats, h.L1.StoreStats, h.L2.StoreStats}
			if got := [4]cache.Stats{r.L1, r.L2, r.L1Store, r.L2Store}; got != want {
				t.Errorf("%s on %s: L1/L2/L1Store/L2Store = %+v, standalone hierarchy gives %+v",
					w.Name, cfg.Name, got, want)
			}
			if r.Branches != branches || r.Mispredicts != mispredicts[i] {
				t.Errorf("%s on %s: %d branches, %d mispredicts; standalone %s replay gives %d, %d",
					w.Name, cfg.Name, r.Branches, r.Mispredicts, preds[i].Name(), branches, mispredicts[i])
			}
		}
	}
}

// compileWorkload compiles a workload's original at -O2 for target.
func compileWorkload(t testing.TB, w *workloads.Workload, target *isa.Desc) *isa.Program {
	t.Helper()
	cp, err := hlc.Check(mustParse(t, w))
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	prog, err := compiler.Compile(cp, target, compiler.O2)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return prog
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
