package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// --- Fig. 4: reduction in dynamic instruction count ---

// Fig4Row is one bar of Fig. 4.
type Fig4Row struct {
	Workload  string
	OrigDyn   uint64
	SynDyn    uint64
	Reduction float64 // orig / syn
}

// Fig4Result is the full figure.
type Fig4Result struct {
	Rows         []Fig4Row
	AvgReduction float64
}

// Fig4 measures original-vs-synthetic dynamic instruction counts.
func Fig4(suite []*workloads.Workload) (*Fig4Result, error) {
	return DefaultRunner().Fig4(background(), suite)
}

// Fig4 measures original-vs-synthetic dynamic instruction counts.
func (r *Runner) Fig4(ctx context.Context, suite []*workloads.Workload) (*Fig4Result, error) {
	rows, err := pipeline.Map(ctx, r.P, suite, func(ctx context.Context, w *workloads.Workload) (Fig4Row, error) {
		cl, err := r.P.Synthesize(ctx, w)
		if err != nil {
			return Fig4Row{}, err
		}
		syn, err := r.P.CompileClone(ctx, w, isa.AMD64, compiler.O0)
		if err != nil {
			return Fig4Row{}, err
		}
		res, err := runProgram(syn, nil, nil)
		if err != nil {
			return Fig4Row{}, fmt.Errorf("%s clone: %w", w.Name, err)
		}
		row := Fig4Row{
			Workload: w.Name,
			OrigDyn:  cl.Profile.TotalDyn,
			SynDyn:   res.DynInstrs,
		}
		if res.DynInstrs > 0 {
			row.Reduction = float64(cl.Profile.TotalDyn) / float64(res.DynInstrs)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{Rows: rows}
	var ratios []float64
	for _, row := range rows {
		ratios = append(ratios, row.Reduction)
	}
	res.AvgReduction = stats.Mean(ratios)
	return res, nil
}

// Print renders the figure as a table.
func (r *Fig4Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 4 — dynamic instruction count: original relative to synthetic\n")
	fmt.Fprintf(w, "%-24s %14s %14s %10s\n", "workload", "original", "synthetic", "reduction")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-24s %14d %14d %9.1fx\n", row.Workload, row.OrigDyn, row.SynDyn, row.Reduction)
	}
	fmt.Fprintf(w, "%-24s %40.1fx\n", "AVERAGE", r.AvgReduction)
}

// --- Fig. 5: normalized dynamic instruction count across opt levels ---

// Fig5Result carries the per-level averages, normalized to O0.
type Fig5Result struct {
	Levels []string
	Orig   []float64
	Syn    []float64
}

// Fig5 measures how the dynamic instruction count responds to the
// optimization level for originals and clones.
func Fig5(suite []*workloads.Workload) (*Fig5Result, error) {
	return DefaultRunner().Fig5(background(), suite)
}

// fig5Row is one workload's per-level dyn counts, normalized to its O0.
type fig5Row struct {
	orig, syn []float64
}

// Fig5 measures how the dynamic instruction count responds to the
// optimization level for originals and clones.
func (r *Runner) Fig5(ctx context.Context, suite []*workloads.Workload) (*Fig5Result, error) {
	rows, err := pipeline.Map(ctx, r.P, suite, func(ctx context.Context, w *workloads.Workload) (fig5Row, error) {
		var row fig5Row
		var o0Orig, o0Syn float64
		for li, level := range compiler.Levels {
			pair, err := r.P.PairAt(ctx, w, isa.AMD64, level)
			if err != nil {
				return row, err
			}
			ro, err := runProgram(pair.Orig, w.Setup, nil)
			if err != nil {
				return row, fmt.Errorf("%s %v: %w", w.Name, level, err)
			}
			rs, err := runProgram(pair.Syn, nil, nil)
			if err != nil {
				return row, fmt.Errorf("%s clone %v: %w", w.Name, level, err)
			}
			if li == 0 {
				o0Orig, o0Syn = float64(ro.DynInstrs), float64(rs.DynInstrs)
			}
			row.orig = append(row.orig, float64(ro.DynInstrs)/o0Orig)
			row.syn = append(row.syn, float64(rs.DynInstrs)/o0Syn)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{}
	for li, level := range compiler.Levels {
		var po, ps []float64
		for _, row := range rows {
			po = append(po, row.orig[li])
			ps = append(ps, row.syn[li])
		}
		res.Levels = append(res.Levels, level.String())
		res.Orig = append(res.Orig, stats.Mean(po))
		res.Syn = append(res.Syn, stats.Mean(ps))
	}
	return res, nil
}

// Print renders the figure.
func (r *Fig5Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 5 — normalized dynamic instruction count vs optimization level\n")
	fmt.Fprintf(w, "%-10s %10s %10s\n", "level", "original", "synthetic")
	for i := range r.Levels {
		fmt.Fprintf(w, "%-10s %9.1f%% %9.1f%%\n", r.Levels[i], r.Orig[i]*100, r.Syn[i]*100)
	}
}

// --- Fig. 6: instruction mix ---

// MixRow holds loads/stores/branches/others fractions for one benchmark
// family, original vs synthetic.
type MixRow struct {
	Name string
	Orig [4]float64
	Syn  [4]float64
}

// Fig6Result is the mix figure at one optimization level.
type Fig6Result struct {
	Level   string
	Rows    []MixRow
	Average MixRow
}

func measureMix(prog *isa.Program, setup func(*vm.VM) error) ([4]float64, error) {
	lay := vm.LayoutOf(prog)
	classBySite := make([]isa.Class, lay.NumSites())
	for s := range classBySite {
		classBySite[s] = lay.Instr(s).Class()
	}
	var mix [isa.NumClasses]uint64
	var total uint64
	_, err := runProgram(prog, setup, func(ev *vm.Event) {
		total++
		mix[classBySite[ev.Site]]++
	})
	var out [4]float64
	if err != nil {
		return out, err
	}
	t := float64(total)
	out[0] = float64(mix[isa.ClassLoad]) / t
	out[1] = float64(mix[isa.ClassStore]) / t
	out[2] = float64(mix[isa.ClassBranch]) / t
	out[3] = 1 - out[0] - out[1] - out[2]
	return out, nil
}

// Fig6 measures the instruction mix per benchmark family at one level
// (the paper shows O0 in Fig. 6(a) and O2 in Fig. 6(b)).
func Fig6(suite []*workloads.Workload, level compiler.OptLevel) (*Fig6Result, error) {
	return DefaultRunner().Fig6(background(), suite, level)
}

// Fig6 measures the instruction mix per benchmark family at one level.
func (r *Runner) Fig6(ctx context.Context, suite []*workloads.Workload, level compiler.OptLevel) (*Fig6Result, error) {
	type mixPair struct {
		orig, syn [4]float64
	}
	rows, err := pipeline.Map(ctx, r.P, suite, func(ctx context.Context, w *workloads.Workload) (mixPair, error) {
		pair, err := r.P.PairAt(ctx, w, isa.AMD64, level)
		if err != nil {
			return mixPair{}, err
		}
		om, err := measureMix(pair.Orig, w.Setup)
		if err != nil {
			return mixPair{}, fmt.Errorf("%s: %w", w.Name, err)
		}
		sm, err := measureMix(pair.Syn, nil)
		if err != nil {
			return mixPair{}, fmt.Errorf("%s clone: %w", w.Name, err)
		}
		return mixPair{orig: om, syn: sm}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{Level: level.String()}
	perBench := map[string][]*MixRow{}
	var order []string
	for i, w := range suite {
		if _, ok := perBench[w.Bench]; !ok {
			order = append(order, w.Bench)
		}
		perBench[w.Bench] = append(perBench[w.Bench],
			&MixRow{Name: w.Name, Orig: rows[i].orig, Syn: rows[i].syn})
	}
	var avg MixRow
	avg.Name = "average"
	n := 0.0
	for _, bench := range order {
		var row MixRow
		row.Name = bench
		for _, m := range perBench[bench] {
			for i := 0; i < 4; i++ {
				row.Orig[i] += m.Orig[i] / float64(len(perBench[bench]))
				row.Syn[i] += m.Syn[i] / float64(len(perBench[bench]))
			}
		}
		for i := 0; i < 4; i++ {
			avg.Orig[i] += row.Orig[i]
			avg.Syn[i] += row.Syn[i]
		}
		n++
		res.Rows = append(res.Rows, row)
	}
	for i := 0; i < 4; i++ {
		avg.Orig[i] /= n
		avg.Syn[i] /= n
	}
	res.Average = avg
	return res, nil
}

// Print renders the figure.
func (r *Fig6Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 6 — instruction mix at %s (loads/stores/branches/others)\n", r.Level)
	fmt.Fprintf(w, "%-14s %32s %32s\n", "benchmark", "original", "synthetic")
	rows := append(append([]MixRow(nil), r.Rows...), r.Average)
	for _, row := range rows {
		fmt.Fprintf(w, "%-14s %7.1f%% %7.1f%% %7.1f%% %7.1f%%  %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			row.Name,
			row.Orig[0]*100, row.Orig[1]*100, row.Orig[2]*100, row.Orig[3]*100,
			row.Syn[0]*100, row.Syn[1]*100, row.Syn[2]*100, row.Syn[3]*100)
	}
}

// --- Figs. 7 and 8: data cache hit rates across sizes ---

// CacheRow is one benchmark's hit-rate sweep.
type CacheRow struct {
	Name string
	Orig []float64
	Syn  []float64
}

// FigCacheResult covers Fig. 7 (O0) or Fig. 8 (O2) depending on level.
type FigCacheResult struct {
	Level string
	Sizes []string
	Rows  []CacheRow
}

func measureCacheSweep(prog *isa.Program, setup func(*vm.VM) error) ([]float64, error) {
	ms := cache.NewMultiSim(cache.SweepConfigs())
	_, err := runProgram(prog, setup, func(ev *vm.Event) {
		if ev.IsMem {
			ms.Access(ev.Addr)
		}
	})
	if err != nil {
		return nil, err
	}
	var out []float64
	for _, c := range ms.Caches {
		out = append(out, c.Stats.HitRate())
	}
	return out, nil
}

// FigCache measures data-cache hit rates for 1KB..32KB caches, original vs
// synthetic, at the given level (Fig. 7 uses O0, Fig. 8 uses O2).
func FigCache(suite []*workloads.Workload, level compiler.OptLevel) (*FigCacheResult, error) {
	return DefaultRunner().FigCache(background(), suite, level)
}

// FigCache measures data-cache hit rates for 1KB..32KB caches.
func (r *Runner) FigCache(ctx context.Context, suite []*workloads.Workload, level compiler.OptLevel) (*FigCacheResult, error) {
	rows, err := pipeline.Map(ctx, r.P, suite, func(ctx context.Context, w *workloads.Workload) (CacheRow, error) {
		pair, err := r.P.PairAt(ctx, w, isa.AMD64, level)
		if err != nil {
			return CacheRow{}, err
		}
		oh, err := measureCacheSweep(pair.Orig, w.Setup)
		if err != nil {
			return CacheRow{}, fmt.Errorf("%s: %w", w.Name, err)
		}
		sh, err := measureCacheSweep(pair.Syn, nil)
		if err != nil {
			return CacheRow{}, fmt.Errorf("%s clone: %w", w.Name, err)
		}
		return CacheRow{Name: w.Name, Orig: oh, Syn: sh}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &FigCacheResult{Level: level.String(), Rows: rows}
	for _, cfg := range cache.SweepConfigs() {
		res.Sizes = append(res.Sizes, cfg.Name)
	}
	return res, nil
}

// Print renders the figure.
func (r *FigCacheResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Figs. 7/8 — data cache hit rates at %s\n", r.Level)
	fmt.Fprintf(w, "%-24s %-6s", "workload", "")
	for _, s := range r.Sizes {
		fmt.Fprintf(w, " %7s", s)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-24s %-6s", row.Name, "orig")
		for _, h := range row.Orig {
			fmt.Fprintf(w, " %6.2f%%", h*100)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-24s %-6s", "", "syn")
		for _, h := range row.Syn {
			fmt.Fprintf(w, " %6.2f%%", h*100)
		}
		fmt.Fprintln(w)
	}
}

// --- Fig. 9: branch prediction accuracy ---

// BranchRow is one benchmark's predictor accuracy.
type BranchRow struct {
	Name                         string
	OrigO0, OrigO2, SynO0, SynO2 float64
}

// Fig9Result is the branch prediction figure.
type Fig9Result struct {
	Rows []BranchRow
}

func measureBranchAcc(prog *isa.Program, setup func(*vm.VM) error) (float64, error) {
	meter := &bpred.Meter{P: bpred.DefaultHybrid()}
	// Per-site predictor PCs, derived from each branch's static location.
	lay := vm.LayoutOf(prog)
	isBranch := make([]bool, lay.NumSites())
	pcBySite := make([]uint64, lay.NumSites())
	for s := range pcBySite {
		if lay.Instr(s).Op == isa.BR {
			loc := lay.Loc(s)
			isBranch[s] = true
			pcBySite[s] = uint64(loc.Func)<<24 ^ uint64(loc.Block)<<10 ^ uint64(loc.Index)
		}
	}
	_, err := runProgram(prog, setup, func(ev *vm.Event) {
		if isBranch[ev.Site] {
			meter.Observe(pcBySite[ev.Site], ev.Taken)
		}
	})
	if err != nil {
		return 0, err
	}
	return meter.S.Accuracy(), nil
}

// Fig9 measures hybrid-predictor accuracy for originals and clones at O0
// and O2.
func Fig9(suite []*workloads.Workload) (*Fig9Result, error) {
	return DefaultRunner().Fig9(background(), suite)
}

// Fig9 measures hybrid-predictor accuracy for originals and clones.
func (r *Runner) Fig9(ctx context.Context, suite []*workloads.Workload) (*Fig9Result, error) {
	rows, err := pipeline.Map(ctx, r.P, suite, func(ctx context.Context, w *workloads.Workload) (BranchRow, error) {
		row := BranchRow{Name: w.Name}
		for _, level := range []compiler.OptLevel{compiler.O0, compiler.O2} {
			pair, err := r.P.PairAt(ctx, w, isa.AMD64, level)
			if err != nil {
				return row, err
			}
			oa, err := measureBranchAcc(pair.Orig, w.Setup)
			if err != nil {
				return row, fmt.Errorf("%s: %w", w.Name, err)
			}
			sa, err := measureBranchAcc(pair.Syn, nil)
			if err != nil {
				return row, fmt.Errorf("%s clone: %w", w.Name, err)
			}
			if level == compiler.O0 {
				row.OrigO0, row.SynO0 = oa, sa
			} else {
				row.OrigO2, row.SynO2 = oa, sa
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig9Result{Rows: rows}, nil
}

// Print renders the figure.
func (r *Fig9Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 9 — branch prediction accuracy (hybrid predictor)\n")
	fmt.Fprintf(w, "%-24s %9s %9s %9s %9s\n", "workload", "orig -O0", "orig -O2", "syn -O0", "syn -O2")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-24s %8.2f%% %8.2f%% %8.2f%% %8.2f%%\n", row.Name,
			row.OrigO0*100, row.OrigO2*100, row.SynO0*100, row.SynO2*100)
	}
}
