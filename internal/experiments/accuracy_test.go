package experiments

import (
	"context"
	"math"
	"testing"
)

// This file is the accuracy regression gate: the repo's headline fidelity
// numbers may only ratchet up. Scale-out and performance PRs that would
// silently trade accuracy for speed fail here instead. The floors and
// ceilings are set just under the currently measured values (see
// EXPERIMENTS.md); when accuracy improves, tighten them.

// Accuracy floors/ceilings. Measured at the time of writing (after the
// store-forwarding timing model and dependence-chain emission landed):
// Fig. 10 quick-suite correlation 0.725, qsort relative CPI error 0.26,
// susan 0.04, patricia 0.02, Fig. 11 average speedup-prediction error
// 11.0%, max 29.9%.
const (
	fig10CorrFloor     = 0.70
	qsortCPIErrCeil    = 0.35
	susanCPIErrCeil    = 0.10
	patriciaCPIErrCeil = 0.50 // the paper's 1.5x CPI acceptance band
	fig11AvgErrCeil    = 0.12
	fig11MaxErrCeil    = 0.30
	tableIIMinCovFlr   = 0.85
	tableIIAvgCovFlr   = 0.95
)

// relErr returns |a-b| / |b|.
func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// TestAccuracyGateFig10 asserts the quick-suite CPI correlation floor and
// the per-workload CPI error ceilings for the memory-irregular workloads
// (qsort, susan) that the stride-stream model was built to fix.
func TestAccuracyGateFig10(t *testing.T) {
	res, err := shared().Fig10(context.Background(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Correlation < fig10CorrFloor {
		t.Errorf("Fig. 10 quick-suite CPI correlation %.3f below the %.2f floor — accuracy regressed",
			res.Correlation, fig10CorrFloor)
	}
	ceilings := map[string]float64{
		"qsort/large":    qsortCPIErrCeil,
		"susan/small2":   susanCPIErrCeil,
		"patricia/small": patriciaCPIErrCeil,
	}
	for _, row := range res.Rows {
		ceil, ok := ceilings[row.Name]
		if !ok {
			continue
		}
		delete(ceilings, row.Name)
		for i := range row.Orig {
			if e := relErr(row.Syn[i], row.Orig[i]); e > ceil {
				t.Errorf("%s: CPI error %.2f at L1 point %d exceeds ceiling %.2f (orig %.2f syn %.2f)",
					row.Name, e, i, ceil, row.Orig[i], row.Syn[i])
			}
		}
	}
	for name := range ceilings {
		t.Errorf("gated workload %s missing from the quick suite", name)
	}
}

// TestAccuracyGateTableI asserts every Table I stride class still lands in
// its target miss-rate band.
func TestAccuracyGateTableI(t *testing.T) {
	rows := TableI()
	if len(rows) != 9 {
		t.Fatalf("Table I has %d classes, want 9", len(rows))
	}
	for _, r := range rows {
		if !r.InRange {
			t.Errorf("class %d (stride %dB): measured %.3f outside [%.3f, %.3f]",
				r.Class, r.StrideBytes, r.Measured, r.RangeLo, r.RangeHi)
		}
	}
}

// TestAccuracyGateFig11 asserts the speedup-prediction error ceilings over
// the full machine × optimization-level grid on the quick suite.
func TestAccuracyGateFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("fig11 sweeps the full machine grid; skipped with -short")
	}
	res, err := shared().Fig11(context.Background(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgSpeedupErr > fig11AvgErrCeil {
		t.Errorf("Fig. 11 average speedup-prediction error %.1f%% exceeds the %.0f%% ceiling — accuracy regressed",
			res.AvgSpeedupErr*100, fig11AvgErrCeil*100)
	}
	if res.MaxSpeedupErr > fig11MaxErrCeil {
		t.Errorf("Fig. 11 max speedup-prediction error %.1f%% exceeds the %.0f%% ceiling — accuracy regressed",
			res.MaxSpeedupErr*100, fig11MaxErrCeil*100)
	}
}

// TestAccuracyGateTableII asserts pattern coverage floors on the quick
// suite (the paper claims >95% average).
func TestAccuracyGateTableII(t *testing.T) {
	res, err := shared().TableII(context.Background(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Avg < tableIIAvgCovFlr {
		t.Errorf("average pattern coverage %.3f below %.2f", res.Avg, tableIIAvgCovFlr)
	}
	if res.Min < tableIIMinCovFlr {
		t.Errorf("minimum pattern coverage %.3f below %.2f", res.Min, tableIIMinCovFlr)
	}
}
