// Package stats provides the small set of statistics used by the
// experiment harness: means, geometric means, and normalization against a
// baseline series, matching how the paper reports results (each policy
// normalized to Fixed non-coherent DMA, then geomean over phases).
package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. Non-positive entries are
// clamped to Epsilon so that an occasional zero measurement (e.g. zero
// off-chip accesses in a phase) does not collapse the mean to zero; the
// paper's plots have the same practical issue since they display ratios.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x < Epsilon {
			x = Epsilon
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Epsilon is the floor applied by GeoMean and Ratio to avoid division by
// and logarithms of zero.
const Epsilon = 1e-9

// Ratio returns num/den with den floored at Epsilon.
func Ratio(num, den float64) float64 {
	if den < Epsilon {
		den = Epsilon
	}
	return num / den
}

// Normalize returns xs[i]/base[i] element-wise. The slices must have the
// same length.
func Normalize(xs, base []float64) []float64 {
	if len(xs) != len(base) {
		panic("stats: Normalize length mismatch")
	}
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = Ratio(xs[i], base[i])
	}
	return out
}

// ArgMin returns the index of the smallest element; ties resolve to the
// earliest index. It panics on an empty slice.
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		panic("stats: ArgMin of empty slice")
	}
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
