package stats

import (
	"math"
	"testing"

	"vasppower/internal/rng"
)

func TestHistogramBasic(t *testing.T) {
	xs := []float64{0.5, 1.5, 1.6, 2.5, 3.5}
	h := NewHistogram(xs, 4, 0, 4)
	want := []int{1, 2, 1, 1}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bin %d = %d, want %d (all: %v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if total(h) != 5 {
		t.Fatalf("total = %d", total(h))
	}
}

func TestHistogramBoundaryValueGoesToLastBin(t *testing.T) {
	h := NewHistogram([]float64{4.0}, 4, 0, 4)
	if h.Counts[3] != 1 {
		t.Fatalf("value at Hi not in last bin: %v", h.Counts)
	}
}

func TestHistogramClampsOutliers(t *testing.T) {
	h := NewHistogram([]float64{-100, 100}, 4, 0, 4)
	if h.Counts[0] != 1 || h.Counts[3] != 1 {
		t.Fatalf("outliers not clamped: %v", h.Counts)
	}
	if total(h) != 2 {
		t.Fatal("outliers lost")
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := NewHistogram(nil, 4, 0, 8)
	if h.BinWidth() != 2 {
		t.Fatalf("BinWidth = %v", h.BinWidth())
	}
	if h.BinCenter(0) != 1 || h.BinCenter(3) != 7 {
		t.Fatalf("BinCenter wrong: %v, %v", h.BinCenter(0), h.BinCenter(3))
	}
}

func TestHistogramPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero bins", func() { NewHistogram(nil, 0, 0, 1) })
	mustPanic("empty range", func() { NewHistogram(nil, 4, 1, 1) })
}

func TestViolin(t *testing.T) {
	r := rng.New(3)
	var xs []float64
	for i := 0; i < 5000; i++ {
		xs = append(xs, r.Normal(700, 25))
	}
	for i := 0; i < 5000; i++ {
		xs = append(xs, r.Normal(1400, 25))
	}
	v := NewViolin("test", xs)
	if v == nil {
		t.Fatal("nil violin")
	}
	if !v.IsMultiModal() {
		t.Fatal("bimodal sample not detected as multi-modal")
	}
	hpm, ok := v.HighPowerMode()
	if !ok || math.Abs(hpm.X-1400) > 15 {
		t.Fatalf("violin high power mode = %+v", hpm)
	}
	if v.Summary.N != 10000 {
		t.Fatalf("violin summary N = %d", v.Summary.N)
	}
	if NewViolin("empty", nil) != nil {
		t.Fatal("empty violin should be nil")
	}
	var nilV *Violin
	if _, ok := nilV.HighPowerMode(); ok {
		t.Fatal("nil violin should have no mode")
	}
	if nilV.IsMultiModal() {
		t.Fatal("nil violin should not be multimodal")
	}
}

// total returns the number of counted values.
func total(h *Histogram) int {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return n
}
