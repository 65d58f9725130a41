package experiments

import (
	"context"
	"maps"
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
// Fig. 10 quick-suite correlation 0.725, Fig. 11 average speedup-prediction
// error 11.0%, max 29.9%. The per-clone Fig. 10 ceilings are in
// fig10CPIErrCeil.
const (
	fig10CorrFloor   = 0.70
	fig11AvgErrCeil  = 0.12
	fig11MaxErrCeil  = 0.30
	tableIIMinCovFlr = 0.85
	tableIIAvgCovFlr = 0.95
)

// fig10CPIErrCeil gates every quick-suite clone's worst relative CPI error
// over the three Fig. 10 L1 points. The qsort, susan and patricia ceilings
// came first, with the stride-stream model built to fix those
// memory-irregular workloads (errors then 0.26, 0.04, 0.02; patricia's is
// the paper's 1.5x CPI acceptance band). The others are the smallest
// multiple of 0.05 at least 0.02 above the error measured when they were
// added (in parentheses).
var fig10CPIErrCeil = map[string]float64{
	"qsort/large":        0.35,
	"susan/small2":       0.10,
	"patricia/small":     0.50,
	"basicmath/small":    0.55, // (0.5117)
	"crc32/small":        0.50, // (0.4768)
	"sha/small":          0.45, // (0.3962)
	"fft/small1":         0.45, // (0.3948)
	"stringsearch/small": 0.45, // (0.3869)
	"bitcount/small":     0.30, // (0.2347)
	"dijkstra/small":     0.30, // (0.2337)
	"jpeg/large1":        0.25, // (0.1863)
	"adpcm/small1":       0.15, // (0.1271)
	"gsm/small1":         0.10, // (0.0754)
}

// relErr returns |a-b| / |b|.
func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// TestAccuracyGateFig10 asserts the quick-suite CPI correlation floor and
// every clone's CPI error ceiling.
func TestAccuracyGateFig10(t *testing.T) {
	res, err := shared().Fig10(context.Background(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Correlation < fig10CorrFloor {
		t.Errorf("Fig. 10 quick-suite CPI correlation %.3f below the %.2f floor — accuracy regressed",
			res.Correlation, fig10CorrFloor)
	}
	ceilings := maps.Clone(fig10CPIErrCeil)
	for _, row := range res.Rows {
		ceil, ok := ceilings[row.Name]
		if !ok {
			t.Errorf("%s: no Fig. 10 CPI error ceiling", row.Name)
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
