package explore

import (
	"fmt"
	"io"
	"sort"
)

// PointResult is one design point's aggregated evaluation: how
// faithfully the synthetic clones track the originals there, how fast
// the design is, and how well the clones predict its speedup over the
// sweep's baseline.
type PointResult struct {
	// Point identifies the configuration.
	Point Point `json:"point"`
	// OrigCPI and SynCPI are the mean CPIs over the point's cells.
	OrigCPI float64 `json:"origCPI"`
	SynCPI  float64 `json:"synCPI"`
	// CPIErr and MaxCPIErr are the mean and worst per-cell relative CPI
	// errors of the clones against the originals; CPICorr is the
	// Pearson correlation across the point's cells.
	CPIErr    float64 `json:"cpiErr"`
	MaxCPIErr float64 `json:"maxCPIErr"`
	CPICorr   float64 `json:"cpiCorr"`
	// MeanIPC is the mean original IPC — the design's performance axis.
	MeanIPC float64 `json:"meanIPC"`
	// OrigCycles/SynCycles and OrigTimeSec/SynTimeSec total the point's
	// simulated execution.
	OrigCycles  uint64  `json:"origCycles"`
	SynCycles   uint64  `json:"synCycles"`
	OrigTimeSec float64 `json:"origTimeSec"`
	SynTimeSec  float64 `json:"synTimeSec"`
	// SpeedupOrig is the measured suite speedup of this point over the
	// baseline point; SpeedupSyn is the clones' prediction of it;
	// SpeedupErr is the prediction's relative error.
	SpeedupOrig float64 `json:"speedupOrig"`
	SpeedupSyn  float64 `json:"speedupSyn"`
	SpeedupErr  float64 `json:"speedupErr"`
	// Pareto marks the point as non-dominated on (CPIErr, MeanIPC).
	Pareto bool `json:"pareto"`

	origCPI, synCPI, origIPC []float64
}

// Report is one sweep's full evaluation, ranked most-accurate first.
type Report struct {
	// Name echoes the spec's label.
	Name string `json:"name,omitempty"`
	// Workloads, Levels, and Cells describe the evaluation grid.
	Workloads []string `json:"workloads"`
	Levels    []string `json:"levels"`
	Cells     int      `json:"cells"`
	// Points holds every design point's result; Points[0] is the
	// baseline, the rest are sorted by ascending CPIErr (accuracy
	// rank), IPC-descending on ties.
	Points []PointResult `json:"points"`
	// Correlation is the Pearson correlation between original and
	// synthetic CPIs across every cell of the sweep — the Fig. 10-style
	// "do the clones track performance" headline.
	Correlation float64 `json:"correlation"`
	// TopK is the ranked-table row bound used when printing.
	TopK int `json:"topK"`
}

// rank orders Points[1:] by accuracy (baseline stays first as the
// speedup reference) and records the print bound.
func (r *Report) rank(topK int) {
	if topK <= 0 {
		topK = 10
	}
	r.TopK = topK
	if len(r.Points) > 1 {
		rest := r.Points[1:]
		sort.SliceStable(rest, func(i, j int) bool {
			if rest[i].CPIErr != rest[j].CPIErr {
				return rest[i].CPIErr < rest[j].CPIErr
			}
			if rest[i].MeanIPC != rest[j].MeanIPC {
				return rest[i].MeanIPC > rest[j].MeanIPC
			}
			return rest[i].Point.Name < rest[j].Point.Name
		})
	}
}

// ParetoFront returns the non-dominated points in rank order.
func (r *Report) ParetoFront() []PointResult {
	var out []PointResult
	for _, p := range r.Points {
		if p.Pareto {
			out = append(out, p)
		}
	}
	return out
}

// Print renders the report: the grid summary, the baseline row, the
// ranked top-K table, and the Pareto frontier.
func (r *Report) Print(w io.Writer) {
	name := r.Name
	if name == "" {
		name = "design-space sweep"
	}
	fmt.Fprintf(w, "explore — %s: %d points × %d workloads × %d levels (%d cells)\n",
		name, len(r.Points), len(r.Workloads), len(r.Levels), r.Cells)
	fmt.Fprintf(w, "orig/syn CPI correlation across all cells: %.3f\n", r.Correlation)

	fmt.Fprintf(w, "%-34s %8s %8s %7s %7s %7s %9s %9s %7s %3s\n",
		"point", "origCPI", "synCPI", "cpiErr", "maxErr", "corr", "speedup", "predicted", "spdErr", "par")
	row := func(p PointResult) {
		pareto := ""
		if p.Pareto {
			pareto = "*"
		}
		fmt.Fprintf(w, "%-34s %8.3f %8.3f %6.1f%% %6.1f%% %7.3f %8.3fx %8.3fx %6.1f%% %3s\n",
			truncName(p.Point.Name, 34), p.OrigCPI, p.SynCPI,
			p.CPIErr*100, p.MaxCPIErr*100, p.CPICorr,
			p.SpeedupOrig, p.SpeedupSyn, p.SpeedupErr*100, pareto)
	}
	row(r.Points[0])
	shown := 0
	for _, p := range r.Points[1:] {
		if shown >= r.TopK {
			break
		}
		row(p)
		shown++
	}
	if hidden := len(r.Points) - 1 - shown; hidden > 0 {
		fmt.Fprintf(w, "  ... %d more points (raise topK or use JSON output)\n", hidden)
	}

	front := r.ParetoFront()
	fmt.Fprintf(w, "pareto frontier (accuracy vs. IPC), %d of %d points:\n", len(front), len(r.Points))
	for _, p := range front {
		fmt.Fprintf(w, "  %-34s cpiErr %5.1f%%  IPC %.3f\n", truncName(p.Point.Name, 34), p.CPIErr*100, p.MeanIPC)
	}
}

// truncName bounds a point label for the fixed-width table.
func truncName(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
