package explore

import (
	"context"
	"testing"

	"repro/internal/experiments"
	"repro/internal/pipeline"
)

// sweepCorrFloor is the calibration sweep's accuracy floor on the tiny
// suite, set just under the measured 0.5929 (the benchmark ledger's
// explore workloads report the same value as sweep_cpi_corr). When the
// correlation improves, raise it.
const sweepCorrFloor = 0.59

// TestAccuracyGateSweepCorrelation runs the calibration preset over the
// tiny suite at the experiments' clone seed, as the ledger's explore
// workloads do, and requires the orig/syn CPI correlation over all its
// points to stay at or above the floor.
func TestAccuracyGateSweepCorrelation(t *testing.T) {
	spec := Calibration()
	spec.Suite = "tiny"
	sw, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), pipeline.New(pipeline.Options{Seed: experiments.CloneSeed}), sw)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correlation < sweepCorrFloor {
		t.Errorf("calibration sweep orig/syn CPI correlation %.4f below the %.2f floor — accuracy regressed",
			rep.Correlation, sweepCorrFloor)
	}
}
