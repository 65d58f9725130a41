// Package stats provides the small numeric helpers the experiment harness
// uses to aggregate and compare original-vs-synthetic measurements.
package stats

import "math"

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// RelErr returns |a-b| / b (0 when b is 0).
func RelErr(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Abs(b)
}

// MeanRelErr averages element-wise relative errors of a against reference b.
func MeanRelErr(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		s += RelErr(a[i], b[i])
	}
	return s / float64(n)
}

// MaxRelErr returns the largest element-wise relative error.
func MaxRelErr(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var m float64
	for i := 0; i < n; i++ {
		if e := RelErr(a[i], b[i]); e > m {
			m = e
		}
	}
	return m
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// series (0 when degenerate). The paper's "tracks well" claims are this,
// quantified.
func Pearson(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n < 2 {
		return 0
	}
	ma, mb := Mean(a[:n]), Mean(b[:n])
	var num, da, db float64
	for i := 0; i < n; i++ {
		x, y := a[i]-ma, b[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}
