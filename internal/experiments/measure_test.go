package experiments

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// planSize returns how many programs measurePairs compiles for suite at
// points and how many runs it measures them in.
func planSize(t *testing.T, suite []*workloads.Workload, points []point) (programs, runs int) {
	t.Helper()
	var n atomic.Int64
	_, err := measurePairs(context.Background(), shared().P, suite, points,
		func(*isa.Program, func(*vm.VM) error) (struct{}, error) {
			n.Add(1)
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return 2 * len(points) * len(suite), int(n.Load())
}

// unshared is measurePairs' oracle: it measures every cell's original and
// clone in turn, sharing nothing, and returns out[p][w] as measurePairs
// does.
func unshared[T any](t *testing.T, suite []*workloads.Workload, points []point,
	measure func(*isa.Program, func(*vm.VM) error) (T, error)) [][]pair[T] {
	t.Helper()
	out := make([][]pair[T], len(points))
	for pi, pt := range points {
		for _, w := range suite {
			progs, err := shared().P.PairAt(context.Background(), w, pt.target, pt.level)
			if err != nil {
				t.Fatal(err)
			}
			orig, err := measure(progs.Orig, w.Setup)
			if err != nil {
				t.Fatal(err)
			}
			syn, err := measure(progs.Syn, nil)
			if err != nil {
				t.Fatal(err)
			}
			out[pi] = append(out[pi], pair[T]{orig, syn})
		}
	}
	return out
}

// sameBits reports whether two float64s are bit-for-bit equal.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestFig5MatchesUnshared requires Fig. 5 on the tiny suite to equal bit
// for bit the figure computed from unshared measurements, and pins its run
// plan: on the tiny suite every -O3 build equals its -O2 build, so 24
// programs make 18 runs.
func TestFig5MatchesUnshared(t *testing.T) {
	suite, points := tiny(), at(isa.AMD64, compiler.Levels...)
	if programs, runs := planSize(t, suite, points); programs != 24 || runs != 18 {
		t.Errorf("Fig. 5 plan: %d programs in %d runs, want 24 in 18", programs, runs)
	}
	res, err := shared().Fig5(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	rows := unshared(t, suite, points, measureDyn)
	for li := range points {
		var po, ps []float64
		for w, c := range rows[li] {
			po = append(po, c.orig/rows[0][w].orig)
			ps = append(ps, c.syn/rows[0][w].syn)
		}
		if want := stats.Mean(po); !sameBits(res.Orig[li], want) {
			t.Errorf("%s orig = %v, oracle %v", res.Levels[li], res.Orig[li], want)
		}
		if want := stats.Mean(ps); !sameBits(res.Syn[li], want) {
			t.Errorf("%s syn = %v, oracle %v", res.Levels[li], res.Syn[li], want)
		}
	}
}

// TestFig9MatchesUnshared requires every Fig. 9 accuracy on the tiny suite
// to equal bit for bit an unshared measurement of its cell.
func TestFig9MatchesUnshared(t *testing.T) {
	suite := tiny()
	res, err := shared().Fig9(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	rows := unshared(t, suite, at(isa.AMD64, compiler.O0, compiler.O2), measureBranchAcc)
	for w, got := range res.Rows {
		o0, o2 := rows[0][w], rows[1][w]
		want := BranchRow{Name: suite[w].Name, OrigO0: o0.orig, OrigO2: o2.orig, SynO0: o0.syn, SynO2: o2.syn}
		if got.Name != want.Name || !sameBits(got.OrigO0, want.OrigO0) || !sameBits(got.OrigO2, want.OrigO2) ||
			!sameBits(got.SynO0, want.SynO0) || !sameBits(got.SynO2, want.SynO2) {
			t.Errorf("row %d = %+v, oracle %+v", w, got, want)
		}
	}
}

// TestFig11MatchesPerCellOracle requires Fig. 11 on the tiny suite, which
// times each distinct program once per ISA, to equal bit for bit an oracle
// that times every (ISA, level, workload, original | clone) with no
// sharing and sums in suite order. It also pins the run plan: on the tiny
// suite every -O3 build equals its -O2 build, so 72 programs make 54 runs.
func TestFig11MatchesPerCellOracle(t *testing.T) {
	ctx := context.Background()
	r, suite := shared(), tiny()

	points, _ := fig11Grid()
	if programs, runs := planSize(t, suite, points); programs != 72 || runs != 54 {
		t.Errorf("Fig. 11 plan: %d programs in %d runs, want 72 in 54", programs, runs)
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
			if !sameBits(res.Orig[mi][li], wantO) {
				t.Errorf("%s %s orig = %v, oracle %v", m.Name, res.Levels[li], res.Orig[mi][li], wantO)
			}
			if !sameBits(res.Syn[mi][li], wantS) {
				t.Errorf("%s %s syn = %v, oracle %v", m.Name, res.Levels[li], res.Syn[mi][li], wantS)
			}
		}
	}
}

// TestFig11RunIdentity pins what makes two programs one run: the same
// target, the same workload, the same side (an original runs with its
// workload's setup, a clone without), and an identical program, by pointer
// or by value. Every cell below holds one program object, so only that
// identity keeps the runs apart.
func TestFig11RunIdentity(t *testing.T) {
	ws := tiny()[:2]
	prog := &isa.Program{ISA: isa.AMD64, Entry: 0}
	twin := &isa.Program{ISA: isa.AMD64, Entry: 0} // equal, not the same pointer
	other := &isa.Program{ISA: isa.AMD64, Entry: 1}
	var cells []cell
	var pairs []pipeline.Pair
	for _, target := range []*isa.Desc{isa.AMD64, isa.IA64} {
		for _, w := range ws {
			for li, p := range []*isa.Program{prog, twin, other} {
				cells = append(cells, cell{point{target, compiler.Levels[li]}, w})
				pairs = append(pairs, pipeline.Pair{Orig: p, Syn: p})
			}
		}
	}
	runs, of := runsOf(cells, pairs)
	// Per target and workload: {prog, twin} and {other}, once as original,
	// once as clone.
	if len(runs) != 16 {
		t.Fatalf("%d runs, want 16", len(runs))
	}
	for i, c := range cells {
		for side, k := range of[i] {
			r := runs[k]
			if r.target != c.target || r.w != c.w || r.clone != (side == 1) {
				t.Errorf("cell %d side %d: run %+v", i, side, r)
			}
		}
		if of[i][0] == of[i][1] {
			t.Errorf("cell %d: original and clone share run %d", i, of[i][0])
		}
	}
	for g := 0; g < len(cells); g += 3 { // the first cell of each (target, workload)
		if of[g] != of[g+1] {
			t.Errorf("cells %d and %d: equal programs in runs %v and %v", g, g+1, of[g], of[g+1])
		}
		if of[g] == of[g+2] {
			t.Errorf("cells %d and %d: different programs share runs %v", g, g+2, of[g])
		}
	}
	if of[0] == of[3] {
		t.Errorf("workloads %s and %s share runs %v", ws[0].Name, ws[1].Name, of[0])
	}
	if of[0] == of[6] {
		t.Errorf("targets %s and %s share runs %v", isa.AMD64.Name, isa.IA64.Name, of[0])
	}
}

// TestQuickRunPlans pins the quick suite's run plans: Fig. 5 measures 104
// programs in 81 runs and Fig. 11 312 in 243, because most -O3 builds
// equal their -O2 builds.
func TestQuickRunPlans(t *testing.T) {
	fig11, _ := fig11Grid()
	for _, c := range []struct {
		name                   string
		points                 []point
		wantPrograms, wantRuns int
	}{
		{"Fig. 5", at(isa.AMD64, compiler.Levels...), 104, 81},
		{"Fig. 11", fig11, 312, 243},
	} {
		if programs, runs := planSize(t, Quick(), c.points); programs != c.wantPrograms || runs != c.wantRuns {
			t.Errorf("%s plan: %d programs in %d runs, want %d in %d", c.name, programs, runs, c.wantPrograms, c.wantRuns)
		}
	}
}
