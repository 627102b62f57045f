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
	"math/bits"
	"slices"
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
func Describe(xs []float64) (Summary, error) { return DescribeInto(xs, nil) }

// DescribeInto is Describe with its working copy of xs made in
// *scratch, which it grows as needed, so a caller summarizing series
// one after another does not allocate. A nil scratch allocates the
// copy, as Describe does. The order statistics are selected, not
// sorted: *scratch is left holding xs partially ordered, with each
// position the Summary reads holding the value a sort would put there.
func DescribeInto(xs []float64, scratch *[]float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	if scratch == nil {
		scratch = new([]float64)
	}
	*scratch = append((*scratch)[:0], xs...)
	selectSummaryStats(*scratch)
	return describeSorted(xs, *scratch), nil
}

// describeSorted summarizes the non-empty xs given sorted, a copy of
// it that holds its sorted values at least at the positions the summary
// reads: the two ends and the two order statistics each quartile
// interpolates between. The sums run over xs in input order, so Mean
// and StdDev keep their bits whoever ordered the copy.
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

// selectSummaryStats permutes v, a non-empty sample, so that every
// position describeSorted reads holds the value sorting v would put
// there (ascending, NaNs first, as sort.Float64s and slices.Sort
// order). Equal values may trade places (a zero's sign, a NaN's
// payload), as they do between sorting algorithms. It costs a few
// linear partitioning passes instead of a sort.
func selectSummaryStats(v []float64) {
	n := len(v)
	nans := 0
	for i, x := range v {
		if x != x {
			v[i], v[nans] = v[nans], x
			nans++
		}
	}
	var buf [8]int
	ks := append(buf[:0], 0, n-1)
	if n > 1 {
		for _, q := range [...]float64{0.25, 0.5, 0.75} {
			lo, _ := quantilePos(n, q)
			ks = append(ks, lo, lo+1)
		}
	}
	slices.Sort(ks)
	ks = slices.Compact(ks)
	for len(ks) > 0 && ks[0] < nans {
		ks = ks[1:] // inside the NaN prefix: settled
	}
	selectAt(v[nans:], nans, ks, 2*bits.Len(uint(n)))
}

// smallRange is the length at or below which selectAt sorts a subrange
// outright.
const smallRange = 16

// selectAt orders v, a NaN-free subrange of a sample starting at offset
// off, so that each position in ks (ascending, counted in the whole
// sample, all inside v) holds the value sorting v would put there.
// Each pass partitions around a pivot and keeps only the sides that
// hold a wanted position; after depth passes the rest is sorted, which
// bounds the worst case at a sort's cost.
func selectAt(v []float64, off int, ks []int, depth int) {
	for len(ks) > 0 {
		if len(v) <= smallRange {
			insertionSort(v)
			return
		}
		if depth == 0 {
			slices.Sort(v)
			return
		}
		depth--
		lt, gt := partition3(v)
		i := 0
		for i < len(ks) && ks[i]-off < lt {
			i++
		}
		j := i
		for j < len(ks) && ks[j]-off < gt {
			j++
		}
		selectAt(v[:lt], off, ks[:i], depth)
		v, off, ks = v[gt:], off+gt, ks[j:]
	}
}

// insertionSort sorts a short, NaN-free v in place.
func insertionSort(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// partition3 rearranges v, NaN-free and longer than 2, into v[:lt] < p,
// v[lt:gt] == p and v[gt:] > p, for a median-of-three pivot p from v (a
// ninther from 64 values up). Sampled power series hold long runs of
// one value, and a three-way split settles such a run, and every wanted
// position inside it, in one pass.
func partition3(v []float64) (lt, gt int) {
	n := len(v)
	mid := n / 2
	pv := median3(v, 0, mid, n-1)
	if n >= 64 {
		s := n / 8
		pv = median3(v, median3(v, 0, s, 2*s), median3(v, mid-s, mid, mid+s), median3(v, n-1-2*s, n-1-s, n-1))
	}
	p := v[pv]
	gt = n
	for i := 0; i < gt; {
		switch x := v[i]; {
		case x < p:
			v[lt], v[i] = x, v[lt]
			lt++
			i++
		case p < x:
			gt--
			v[i], v[gt] = v[gt], x
		default:
			i++
		}
	}
	return lt, gt
}

// median3 returns whichever of the indices a, b and c holds the middle
// of their three values.
func median3(v []float64, a, b, c int) int {
	if v[b] < v[a] {
		a, b = b, a
	}
	if v[c] < v[b] {
		b = c
		if v[b] < v[a] {
			b = a
		}
	}
	return b
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
	lo, frac := quantilePos(n, q)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// quantilePos returns the order statistic at or below the q-th
// quantile of n values and the fraction of the way to the next one.
func quantilePos(n int, q float64) (lo int, frac float64) {
	pos := q * float64(n-1)
	lo = int(math.Floor(pos))
	return lo, pos - float64(lo)
}
