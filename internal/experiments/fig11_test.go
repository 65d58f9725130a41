package experiments

import (
	"context"
	"math"
	"testing"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/pipeline"
)

// TestFig11MatchesPerCellOracle requires Fig. 11 on the tiny suite, which
// times each distinct program once per ISA group, to equal bit for bit an
// oracle that times every (group, level, workload, original | clone) with
// no sharing and sums in suite order. It also pins the run plan: on the
// tiny suite every -O3 build equals its -O2 build, so 72 programs make 54
// runs.
func TestFig11MatchesPerCellOracle(t *testing.T) {
	ctx := context.Background()
	r, suite := shared(), tiny()

	plan, err := r.planFig11(ctx, suite)
	if err != nil {
		t.Fatal(err)
	}
	if got := 2 * len(plan.cells); got != 72 {
		t.Errorf("plan has %d programs, want 72 (3 ISA groups × 4 levels × 3 workloads × 2)", got)
	}
	if len(plan.runs) != 54 {
		t.Errorf("plan has %d runs, want 54 (each -O3 build equals its -O2 build)", len(plan.runs))
	}

	res, err := r.Fig11(ctx, suite)
	if err != nil {
		t.Fatal(err)
	}

	var groups [][]int // Table III machine indices by ISA, in table order
	group := map[*isa.Desc]int{}
	for mi, m := range cpu.Machines {
		g, ok := group[m.ISA]
		if !ok {
			g = len(groups)
			group[m.ISA] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], mi)
	}
	orig := make([][]float64, len(cpu.Machines))
	syn := make([][]float64, len(cpu.Machines))
	for mi := range cpu.Machines {
		orig[mi] = make([]float64, len(compiler.Levels))
		syn[mi] = make([]float64, len(compiler.Levels))
	}
	for _, idx := range groups {
		var machines []cpu.Config
		for _, mi := range idx {
			machines = append(machines, cpu.Machines[mi])
		}
		for li, level := range compiler.Levels {
			for _, w := range suite {
				pair, err := r.P.PairAt(ctx, w, machines[0].ISA, level)
				if err != nil {
					t.Fatal(err)
				}
				ro, err := cpu.SimulateMany(pair.Orig, w.Setup, machines, 0)
				if err != nil {
					t.Fatal(err)
				}
				rs, err := cpu.SimulateMany(pair.Syn, nil, machines, 0)
				if err != nil {
					t.Fatal(err)
				}
				for k, mi := range idx {
					orig[mi][li] += ro[k].TimeSec
					syn[mi][li] += rs[k].TimeSec
				}
			}
		}
	}
	baseO, baseS := orig[0][0], syn[0][0]
	for mi, m := range cpu.Machines {
		for li := range compiler.Levels {
			wantO, wantS := orig[mi][li]/baseO, syn[mi][li]/baseS
			if math.Float64bits(res.Orig[mi][li]) != math.Float64bits(wantO) {
				t.Errorf("%s %s orig = %v, oracle %v", m.Name, res.Levels[li], res.Orig[mi][li], wantO)
			}
			if math.Float64bits(res.Syn[mi][li]) != math.Float64bits(wantS) {
				t.Errorf("%s %s syn = %v, oracle %v", m.Name, res.Levels[li], res.Syn[mi][li], wantS)
			}
		}
	}
}

// TestFig11RunIdentity pins what makes two programs one run: the same ISA
// group, the same workload, the same side (an original runs with its
// workload's setup, a clone without), and an identical program, by pointer
// or by value. Every cell below holds one program object, so only that
// identity keeps the runs apart.
func TestFig11RunIdentity(t *testing.T) {
	w := tiny()[0]
	prog := &isa.Program{ISA: isa.AMD64, Entry: 0}
	twin := &isa.Program{ISA: isa.AMD64, Entry: 0} // equal, not the same pointer
	other := &isa.Program{ISA: isa.AMD64, Entry: 1}
	var cells []fig11Cell
	var pairs []pipeline.Pair
	for g := 0; g < 2; g++ {
		for li, p := range []*isa.Program{prog, twin, other} {
			cells = append(cells, fig11Cell{group: g, level: li, workload: w})
			pairs = append(pairs, pipeline.Pair{Orig: p, Syn: p})
		}
	}
	runs, of := shareRuns(cells, pairs)
	// Per group: {prog, twin} and {other}, once as original, once as clone.
	if len(runs) != 8 {
		t.Fatalf("%d runs, want 8", len(runs))
	}
	for i, c := range cells {
		for side, k := range of[i] {
			run := runs[k]
			if run.group != c.group || run.workload != c.workload || run.clone != (side == 1) {
				t.Errorf("cell %d side %d: run %+v", i, side, run)
			}
		}
		if of[i][0] == of[i][1] {
			t.Errorf("cell %d: original and clone share run %d", i, of[i][0])
		}
	}
	for _, g := range []int{0, 3} { // the first cell of each group
		if of[g] != of[g+1] {
			t.Errorf("cells %d and %d: equal programs in runs %v and %v", g, g+1, of[g], of[g+1])
		}
		if of[g] == of[g+2] {
			t.Errorf("cells %d and %d: different programs share runs %v", g, g+2, of[g])
		}
	}
	if of[0] == of[3] {
		t.Errorf("groups 0 and 1 share runs %v", of[0])
	}
}
