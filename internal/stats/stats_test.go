package stats

import (
	"math"
	"testing"
)

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestMean(t *testing.T) {
	approx(t, "Mean", Mean([]float64{1, 2, 3, 4}), 2.5)
	approx(t, "Mean(empty)", Mean(nil), 0)
	approx(t, "Mean(single)", Mean([]float64{7}), 7)
}

func TestRelErr(t *testing.T) {
	approx(t, "RelErr", RelErr(110, 100), 0.1)
	approx(t, "RelErr(under)", RelErr(90, 100), 0.1)
	approx(t, "RelErr(negative ref)", RelErr(-90, -100), 0.1)
	approx(t, "RelErr(zero ref)", RelErr(5, 0), 0)
}

func TestMeanAndMaxRelErr(t *testing.T) {
	a := []float64{110, 80, 100}
	b := []float64{100, 100, 100}
	approx(t, "MeanRelErr", MeanRelErr(a, b), (0.1+0.2+0.0)/3)
	approx(t, "MaxRelErr", MaxRelErr(a, b), 0.2)
	// Length mismatch truncates to the shorter series.
	approx(t, "MeanRelErr(short)", MeanRelErr([]float64{110}, b), 0.1)
	approx(t, "MeanRelErr(empty)", MeanRelErr(nil, nil), 0)
	approx(t, "MaxRelErr(empty)", MaxRelErr(nil, nil), 0)
}

func TestPearson(t *testing.T) {
	// Perfect positive and negative linear relationships.
	approx(t, "Pearson(+1)", Pearson([]float64{1, 2, 3}, []float64{10, 20, 30}), 1)
	approx(t, "Pearson(-1)", Pearson([]float64{1, 2, 3}, []float64{3, 2, 1}), -1)
	// Known mid value: hand-computed for these points.
	got := Pearson([]float64{1, 2, 3, 4}, []float64{1, 3, 2, 4})
	approx(t, "Pearson(mixed)", got, 0.8)
	// Degenerate inputs.
	approx(t, "Pearson(constant)", Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}), 0)
	approx(t, "Pearson(short)", Pearson([]float64{1}, []float64{2}), 0)
	approx(t, "Pearson(empty)", Pearson(nil, nil), 0)
}
