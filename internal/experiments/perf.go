package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/plagiarism"
	"repro/internal/profile"
	"repro/internal/sfgl"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// --- Fig. 10: CPI on a 2-wide out-of-order processor, L1 sweep ---

// Fig10L1Sizes are the paper's cache points (KB).
var Fig10L1Sizes = []int{8, 16, 32}

// CPIRow is one benchmark's CPI at the three cache sizes.
type CPIRow struct {
	Name string
	Orig []float64
	Syn  []float64
}

// Fig10Result is the CPI figure.
type Fig10Result struct {
	Rows []CPIRow
	// Correlation is the Pearson correlation between original and
	// synthetic CPIs across all benchmarks and sizes (how well the
	// synthetics "track overall performance").
	Correlation float64
}

// Fig10 runs detailed simulations of a 2-wide out-of-order processor. The
// three L1 sizes time each program in one interpretation (cpu.SimulateMany).
func (r *Runner) Fig10(ctx context.Context, suite []*workloads.Workload) (*Fig10Result, error) {
	var cfgs []cpu.Config
	for _, kb := range Fig10L1Sizes {
		cfgs = append(cfgs, cpu.Simulated2Wide(kb))
	}
	cpis := func(prog *isa.Program, setup func(*vm.VM) error) ([]float64, error) {
		sums, err := cpu.SimulateMany(prog, setup, cfgs, 0)
		var out []float64
		for _, s := range sums {
			out = append(out, s.CPI())
		}
		return out, err
	}
	rows, err := measurePairs(ctx, r.P, suite, at(cfgs[0].ISA, compiler.O2), cpis)
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{}
	var allOrig, allSyn []float64
	for i, w := range suite {
		row := CPIRow{Name: w.Name, Orig: rows[0][i].orig, Syn: rows[0][i].syn}
		res.Rows = append(res.Rows, row)
		allOrig = append(allOrig, row.Orig...)
		allSyn = append(allSyn, row.Syn...)
	}
	res.Correlation = stats.Pearson(allOrig, allSyn)
	return res, nil
}

// Print renders the figure.
func (r *Fig10Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 10 — CPI on a 2-wide out-of-order core (L1D 8/16/32KB)\n")
	fmt.Fprintf(w, "%-24s %23s %23s\n", "workload", "original", "synthetic")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-24s %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f\n", row.Name,
			row.Orig[0], row.Orig[1], row.Orig[2], row.Syn[0], row.Syn[1], row.Syn[2])
	}
	fmt.Fprintf(w, "orig/syn CPI correlation: %.3f\n", r.Correlation)
}

// --- Fig. 11: normalized execution time across machines and compilers ---

// Fig11Result holds normalized execution times per machine and level.
type Fig11Result struct {
	Machines []string
	Levels   []string
	// Orig[m][l] and Syn[m][l] are total suite execution times normalized
	// to the corresponding -O0 / Pentium 4 3GHz value.
	Orig [][]float64
	Syn  [][]float64
	// AvgSpeedupErr is the paper's headline metric: the mean relative
	// error of the synthetic's normalized time against the original's
	// across all machines and levels (the paper reports 7.4%).
	AvgSpeedupErr float64
	// MaxSpeedupErr is the worst case (the paper reports <20%).
	MaxSpeedupErr float64
}

// fig11Grid returns Fig. 11's points, each Table III ISA (in table order)
// at every level, and the Table III indices of each ISA's machines.
func fig11Grid() ([]point, map[*isa.Desc][]int) {
	var points []point
	machines := map[*isa.Desc][]int{}
	for mi, m := range cpu.Machines {
		if machines[m.ISA] == nil {
			points = append(points, at(m.ISA, compiler.Levels...)...)
		}
		machines[m.ISA] = append(machines[m.ISA], mi)
	}
	return points, machines
}

// Fig11 measures normalized execution time across machines and levels.
// Each distinct program is timed on every Table III machine of its ISA in
// one interpretation (cpu.SimulateMany).
func (r *Runner) Fig11(ctx context.Context, suite []*workloads.Workload) (*Fig11Result, error) {
	points, machines := fig11Grid()
	times := func(prog *isa.Program, setup func(*vm.VM) error) ([]float64, error) {
		var cfgs []cpu.Config
		for _, mi := range machines[prog.ISA] {
			cfgs = append(cfgs, cpu.Machines[mi])
		}
		sums, err := cpu.SimulateMany(prog, setup, cfgs, 0)
		var t []float64 // TimeSec per machine of the ISA
		for _, s := range sums {
			t = append(t, s.TimeSec)
		}
		return t, err
	}
	rows, err := measurePairs(ctx, r.P, suite, points, times)
	if err != nil {
		return nil, err
	}

	res := &Fig11Result{}
	for _, level := range compiler.Levels {
		res.Levels = append(res.Levels, level.String())
	}
	res.Orig = make([][]float64, len(cpu.Machines))
	res.Syn = make([][]float64, len(cpu.Machines))
	for mi, machine := range cpu.Machines {
		res.Machines = append(res.Machines, machine.Name)
		res.Orig[mi] = make([]float64, len(compiler.Levels))
		res.Syn[mi] = make([]float64, len(compiler.Levels))
	}
	// Aggregate each (machine, level) total over the suite in suite order,
	// so the floating-point sums are identical for any worker count.
	for pi, pt := range points {
		for _, c := range rows[pi] {
			for k, mi := range machines[pt.target] {
				res.Orig[mi][pt.level] += c.orig[k]
				res.Syn[mi][pt.level] += c.syn[k]
			}
		}
	}

	// Normalize both series to their own P4-3.0GHz -O0 value.
	var flatOrig, flatSyn []float64
	baseO := res.Orig[0][0]
	baseS := res.Syn[0][0]
	for mi := range res.Orig {
		for li := range res.Orig[mi] {
			res.Orig[mi][li] /= baseO
			res.Syn[mi][li] /= baseS
			flatOrig = append(flatOrig, res.Orig[mi][li])
			flatSyn = append(flatSyn, res.Syn[mi][li])
		}
	}
	res.AvgSpeedupErr = stats.MeanRelErr(flatSyn, flatOrig)
	res.MaxSpeedupErr = stats.MaxRelErr(flatSyn, flatOrig)
	return res, nil
}

// Print renders the figure.
func (r *Fig11Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 11 — normalized execution time across machines and optimization levels\n")
	fmt.Fprintf(w, "%-18s %-5s", "machine", "")
	for _, l := range r.Levels {
		fmt.Fprintf(w, " %7s", l)
	}
	fmt.Fprintln(w)
	for mi, m := range r.Machines {
		fmt.Fprintf(w, "%-18s %-5s", m, "orig")
		for _, v := range r.Orig[mi] {
			fmt.Fprintf(w, " %7.3f", v)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-18s %-5s", "", "syn")
		for _, v := range r.Syn[mi] {
			fmt.Fprintf(w, " %7.3f", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "speedup prediction error: avg %.1f%%, max %.1f%%\n",
		r.AvgSpeedupErr*100, r.MaxSpeedupErr*100)
}

// --- Table I: memory-access classes ---

// TableIRow verifies one stride class against its target miss-rate range.
type TableIRow struct {
	Class       int
	StrideBytes int
	RangeLo     float64
	RangeHi     float64
	Measured    float64
	InRange     bool
}

// TableI replays each class's stride pattern against the profiling cache
// and reports the measured miss rate (the construction behind the paper's
// Table I).
func TableI() []TableIRow {
	var rows []TableIRow
	for class := 0; class < sfgl.NumMemClasses; class++ {
		stride := sfgl.StrideBytes(class)
		c := cache.New(profile.DefaultCache)
		span := uint64(64 * 1024)
		var addr uint64
		const accesses = 200000
		for i := 0; i < accesses; i++ {
			if stride == 0 {
				c.Access(0x1000)
				continue
			}
			c.Access(addr)
			addr = (addr + uint64(stride)) % span
		}
		lo := float64(class)*0.125 - 0.0625
		hi := float64(class)*0.125 + 0.0625
		if lo < 0 {
			lo = 0
		}
		if hi > 1 {
			hi = 1
		}
		m := c.Stats.MissRate()
		rows = append(rows, TableIRow{
			Class: class, StrideBytes: stride,
			RangeLo: lo, RangeHi: hi, Measured: m,
			InRange: m >= lo-0.02 && m <= hi+0.02,
		})
	}
	return rows
}

// PrintTableI renders the table.
func PrintTableI(w io.Writer, rows []TableIRow) {
	fmt.Fprintf(w, "Table I — memory access strides vs target miss rates (32B lines)\n")
	fmt.Fprintf(w, "%5s %7s %17s %9s %3s\n", "class", "stride", "target range", "measured", "ok")
	for _, r := range rows {
		fmt.Fprintf(w, "%5d %6dB %7.2f%% - %6.2f%% %8.2f%% %3v\n",
			r.Class, r.StrideBytes, r.RangeLo*100, r.RangeHi*100, r.Measured*100, r.InRange)
	}
}

// --- Table II: pattern coverage ---

// TableIIRow is one workload's Table II pattern coverage.
type TableIIRow struct {
	Workload string
	Coverage float64
}

// TableIIResult summarizes pattern coverage over the suite (the paper
// claims the patterns cover >95% of dynamic instructions).
type TableIIResult struct {
	Rows []TableIIRow
	Min  float64
	Avg  float64
}

// TableII reports the pattern-recognition coverage of every clone.
func (r *Runner) TableII(ctx context.Context, suite []*workloads.Workload) (*TableIIResult, error) {
	rows, err := pipeline.Map(ctx, r.P, suite, func(ctx context.Context, w *workloads.Workload) (TableIIRow, error) {
		cl, err := r.P.Synthesize(ctx, w)
		if err != nil {
			return TableIIRow{}, err
		}
		return TableIIRow{Workload: w.Name, Coverage: cl.Report.Coverage}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &TableIIResult{Rows: rows, Min: 1}
	var sum float64
	for _, row := range rows {
		if row.Coverage < res.Min {
			res.Min = row.Coverage
		}
		sum += row.Coverage
	}
	if len(rows) > 0 {
		res.Avg = sum / float64(len(rows))
	}
	return res, nil
}

// Print renders the table.
func (r *TableIIResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Table II — pattern recognition coverage of dynamic instructions\n")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-24s %6.1f%%\n", row.Workload, row.Coverage*100)
	}
	fmt.Fprintf(w, "%-24s %6.1f%% (min %.1f%%)\n", "AVERAGE", r.Avg*100, r.Min*100)
}

// PrintTableIII renders the machine configurations.
func PrintTableIII(w io.Writer) {
	fmt.Fprintf(w, "Table III — machines used in this study\n")
	fmt.Fprintf(w, "%-18s %-8s %6s %6s %6s %6s %5s\n",
		"machine", "ISA", "GHz", "width", "L1KB", "L2KB", "EPIC")
	for _, m := range cpu.Machines {
		fmt.Fprintf(w, "%-18s %-8s %6.2f %6d %6d %6d %5v\n",
			m.Name, m.ISA.Name, m.FreqGHz, m.Width, m.L1KB, m.L2KB, m.ISA.EPIC)
	}
}

// --- Section V.E: benchmark obfuscation ---

// ObfRow is one workload's plagiarism comparison against its clone.
type ObfRow struct {
	Workload   string
	Similarity float64 // clone vs original (should be ~0)
	SelfCheck  float64 // original vs itself (sanity: 1.0)
}

// ObfuscationResult is the Section V.E experiment.
type ObfuscationResult struct {
	Rows []ObfRow
	Max  float64
}

// Obfuscation fingerprints each workload against its synthetic clone.
func (r *Runner) Obfuscation(ctx context.Context, suite []*workloads.Workload) (*ObfuscationResult, error) {
	opts := plagiarism.DefaultOptions()
	rows, err := pipeline.Map(ctx, r.P, suite, func(ctx context.Context, w *workloads.Workload) (ObfRow, error) {
		cl, err := r.P.Synthesize(ctx, w)
		if err != nil {
			return ObfRow{}, err
		}
		sim, err := plagiarism.CompareSources(w.Source, cl.Source, opts)
		if err != nil {
			return ObfRow{}, fmt.Errorf("%s: %w", w.Name, err)
		}
		self, err := plagiarism.CompareSources(w.Source, w.Source, opts)
		if err != nil {
			return ObfRow{}, err
		}
		return ObfRow{Workload: w.Name, Similarity: sim.Score(), SelfCheck: self.Score()}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &ObfuscationResult{Rows: rows}
	for _, row := range rows {
		if row.Similarity > res.Max {
			res.Max = row.Similarity
		}
	}
	return res, nil
}

// Print renders the experiment.
func (r *ObfuscationResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Section V.E — obfuscation (Moss/winnowing similarity, original vs clone)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-24s similarity %5.1f%% (self check %5.1f%%)\n",
			row.Workload, row.Similarity*100, row.SelfCheck*100)
	}
	fmt.Fprintf(w, "maximum original/clone similarity: %.1f%%\n", r.Max*100)
}
