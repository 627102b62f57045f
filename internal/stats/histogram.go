package stats

import "fmt"

// Histogram is a fixed-width binned frequency count over [Lo, Hi).
// Values landing exactly on Hi are assigned to the last bin so that a
// histogram over [min, max] of a sample loses no points.
type Histogram struct {
	Lo, Hi float64
	Counts []int
}

// NewHistogram builds a histogram of xs with the given number of bins
// over [lo, hi]. It panics if bins <= 0 or hi <= lo.
func NewHistogram(xs []float64, bins int, lo, hi float64) *Histogram {
	if bins <= 0 {
		panic("stats: histogram with no bins")
	}
	if hi <= lo {
		panic(fmt.Sprintf("stats: histogram range [%v,%v] is empty", lo, hi))
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	for _, x := range xs {
		h.Add(x)
	}
	return h
}

// Add counts one value. Values outside [Lo, Hi] are clamped into the
// boundary bins (telemetry glitches shouldn't be silently lost).
func (h *Histogram) Add(x float64) {
	bins := len(h.Counts)
	width := (h.Hi - h.Lo) / float64(bins)
	i := int((x - h.Lo) / width)
	if i < 0 {
		i = 0
	}
	if i >= bins {
		i = bins - 1
	}
	h.Counts[i]++
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 {
	return (h.Hi - h.Lo) / float64(len(h.Counts))
}

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}
