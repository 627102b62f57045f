// Package stats implements the statistical toolkit the paper uses to
// characterize application power: descriptive statistics, histograms,
// Gaussian kernel density estimation (KDE), mode finding (in
// particular the paper's "high power mode" — the mode at the highest
// power), full width at half maximum (FWHM), and violin-plot
// summaries.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned when an operation needs at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	StdDev float64 // population standard deviation
	Q1, Q3 float64 // quartiles (linear interpolation)
}

// Describe computes a Summary of xs. It returns ErrEmpty for an empty
// sample.
func Describe(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	return describeSorted(xs, sortedCopy(xs)), nil
}

// describeSorted summarizes the non-empty xs given sorted, an ascending
// copy of it. Min, Max and the quartiles come from sorted; the sums run
// over xs in input order, so Mean and StdDev keep their bits whoever
// did the sorting.
func describeSorted(xs, sorted []float64) Summary {
	s := Summary{N: len(xs)}
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	var sum, sumSq float64
	for _, v := range xs {
		sum += v
		sumSq += v * v
	}
	n := float64(len(xs))
	s.Mean = sum / n
	variance := sumSq/n - s.Mean*s.Mean
	if variance < 0 {
		variance = 0 // fp noise on constant samples
	}
	s.StdDev = math.Sqrt(variance)
	s.Median = quantileSorted(sorted, 0.5)
	s.Q1 = quantileSorted(sorted, 0.25)
	s.Q3 = quantileSorted(sorted, 0.75)
	return s
}

func sortedCopy(xs []float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
