package explore

import (
	"context"
	"math"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// cell is one (point, workload, level) evaluation of a sweep.
type cell struct {
	pi, wi, li int
}

// cells enumerates a sweep's evaluation grid in deterministic order:
// point-major, then workload, then level. Cell index is the aggregation
// order, so results are identical for any worker count.
func (sw *Sweep) cells() []cell {
	out := make([]cell, 0, len(sw.Points)*len(sw.Workloads)*len(sw.Levels))
	for pi := range sw.Points {
		for wi := range sw.Workloads {
			for li := range sw.Levels {
				out = append(out, cell{pi: pi, wi: wi, li: li})
			}
		}
	}
	return out
}

// Run evaluates the sweep on p's worker pool: every workload's original
// and clone, at every level, is one column timed on all the design points
// through the pipeline's cached Simulate stage (pipeline.SimulateColumns,
// which interprets each program once per group of points); then the
// per-point metrics and the ranked report are aggregated in deterministic
// cell order. A warm rerun of the same sweep over the same store computes
// zero simulate-stage artifacts.
func Run(ctx context.Context, p *pipeline.Pipeline, sw *Sweep) (*Report, error) {
	sums, err := p.SimulateColumns(ctx, sw.columns(), sw.configs(), sw.Spec.MaxInstrs)
	if err != nil {
		return nil, err
	}
	cs := sw.cells()
	pairs := make([]pipeline.SimPair, len(cs))
	for i, c := range cs {
		col := 2 * (c.wi*len(sw.Levels) + c.li)
		pairs[i] = pipeline.SimPair{Orig: sums[col][c.pi], Syn: sums[col+1][c.pi]}
	}
	return buildReport(sw, cs, pairs), nil
}

// columns lists the programs the sweep times: per workload and level, the
// original then the clone.
func (sw *Sweep) columns() []pipeline.Column {
	var cols []pipeline.Column
	for _, w := range sw.Workloads {
		for _, l := range sw.Levels {
			cols = append(cols,
				pipeline.Column{Workload: w, Level: l},
				pipeline.Column{Workload: w, Level: l, Clone: true})
		}
	}
	return cols
}

// configs returns the design points' machine configurations in point
// order.
func (sw *Sweep) configs() []cpu.Config {
	out := make([]cpu.Config, len(sw.Points))
	for i, pt := range sw.Points {
		out[i] = pt.Config()
	}
	return out
}

// buildReport aggregates the sweep's cell results into per-point rows,
// speedup predictions against the baseline point, and the Pareto
// frontier over (clone accuracy, design performance).
func buildReport(sw *Sweep, cs []cell, pairs []pipeline.SimPair) *Report {
	rep := &Report{
		Name:      sw.Spec.Name,
		Levels:    levelNames(sw.Levels),
		Workloads: workloadNames(sw.Workloads),
		Cells:     len(cs),
	}

	points := make([]*PointResult, len(sw.Points))
	for pi, pt := range sw.Points {
		points[pi] = &PointResult{Point: pt}
	}
	var allOrig, allSyn []float64
	for i, c := range cs {
		pr := points[c.pi]
		pr.origCPI = append(pr.origCPI, pairs[i].Orig.CPI())
		pr.synCPI = append(pr.synCPI, pairs[i].Syn.CPI())
		pr.origIPC = append(pr.origIPC, pairs[i].Orig.IPC())
		pr.OrigCycles += pairs[i].Orig.Cycles
		pr.SynCycles += pairs[i].Syn.Cycles
		pr.OrigTimeSec += pairs[i].Orig.TimeSec
		pr.SynTimeSec += pairs[i].Syn.TimeSec
		allOrig = append(allOrig, pairs[i].Orig.CPI())
		allSyn = append(allSyn, pairs[i].Syn.CPI())
	}
	for _, pr := range points {
		pr.OrigCPI = stats.Mean(pr.origCPI)
		pr.SynCPI = stats.Mean(pr.synCPI)
		pr.MeanIPC = stats.Mean(pr.origIPC)
		pr.CPIErr = stats.MeanRelErr(pr.synCPI, pr.origCPI)
		pr.MaxCPIErr = stats.MaxRelErr(pr.synCPI, pr.origCPI)
		pr.CPICorr = stats.Pearson(pr.origCPI, pr.synCPI)
	}

	// Speedup against the baseline (point 0): the original's measured
	// speedup versus the clone's predicted one. Wall-clock time when the
	// configurations carry frequencies, total cycles otherwise.
	base := points[0]
	for _, pr := range points {
		pr.SpeedupOrig = ratio(base.OrigTimeSec, pr.OrigTimeSec, base.OrigCycles, pr.OrigCycles)
		pr.SpeedupSyn = ratio(base.SynTimeSec, pr.SynTimeSec, base.SynCycles, pr.SynCycles)
		if pr.SpeedupOrig > 0 {
			pr.SpeedupErr = math.Abs(pr.SpeedupSyn-pr.SpeedupOrig) / pr.SpeedupOrig
		}
	}

	markPareto(points)

	rep.Points = make([]PointResult, len(points))
	for i, pr := range points {
		rep.Points[i] = *pr
	}
	rep.Correlation = stats.Pearson(allOrig, allSyn)
	rep.rank(sw.Spec.TopK)
	return rep
}

// ratio computes base/point over times when both are positive, falling
// back to cycles (frequency-less configurations simulate time as zero).
func ratio(baseTime, ptTime float64, baseCycles, ptCycles uint64) float64 {
	if baseTime > 0 && ptTime > 0 {
		return baseTime / ptTime
	}
	if ptCycles == 0 {
		return 0
	}
	return float64(baseCycles) / float64(ptCycles)
}

// markPareto flags the points on the Pareto frontier of (CPIErr down,
// MeanIPC up): a point is dominated if some other point tracks the
// original at least as accurately and runs at least as fast, strictly
// better in one of the two.
func markPareto(points []*PointResult) {
	for _, p := range points {
		p.Pareto = true
		for _, q := range points {
			if q == p {
				continue
			}
			if q.CPIErr <= p.CPIErr && q.MeanIPC >= p.MeanIPC &&
				(q.CPIErr < p.CPIErr || q.MeanIPC > p.MeanIPC) {
				p.Pareto = false
				break
			}
		}
	}
}

// levelNames renders an optimization-level list.
func levelNames(levels []compiler.OptLevel) []string {
	out := make([]string, len(levels))
	for i, l := range levels {
		out[i] = l.String()
	}
	return out
}

// workloadNames renders a workload list.
func workloadNames(ws []*workloads.Workload) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}
