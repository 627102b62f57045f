package stats

import (
	"math"
	"testing"
	"testing/quick"

	"vasppower/internal/rng"
)

// Property-based tests on the statistical toolkit.

func randomSample(seed uint64, n int) []float64 {
	r := rng.New(seed)
	xs := make([]float64, n)
	base := uniform(r, 100, 1500)
	spread := uniform(r, 1, 200)
	for i := range xs {
		xs[i] = base + r.Normal(0, spread)
	}
	return xs
}

// The high power mode always lies within [min, max] of the sample.
func TestHighModeWithinRangeProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 20 + int(nRaw)
		xs := randomSample(seed, n)
		mode, ok := HighPowerModeOf(xs)
		if !ok {
			return false
		}
		s, _ := Describe(xs)
		// KDE support extends 3h past the sample; the mode itself must
		// stay within a bandwidth of the data range.
		k := SilvermanBandwidth(xs)
		return mode.X >= s.Min-3*k && mode.X <= s.Max+3*k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Shifting a sample shifts its high power mode by the same amount.
func TestModeShiftEquivarianceProperty(t *testing.T) {
	f := func(seed uint64, shiftRaw uint8) bool {
		xs := randomSample(seed, 200)
		shift := float64(shiftRaw) * 5
		ys := make([]float64, len(xs))
		for i, v := range xs {
			ys[i] = v + shift
		}
		m1, ok1 := HighPowerModeOf(xs)
		m2, ok2 := HighPowerModeOf(ys)
		if !ok1 || !ok2 {
			return false
		}
		return math.Abs((m2.X-m1.X)-shift) < 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Scaling a sample scales mode and FWHM proportionally.
func TestModeScaleEquivarianceProperty(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := 1 + float64(kRaw)/64
		xs := randomSample(seed, 300)
		ys := make([]float64, len(xs))
		for i, v := range xs {
			ys[i] = v * k
		}
		m1, ok1 := HighPowerModeOf(xs)
		m2, ok2 := HighPowerModeOf(ys)
		if !ok1 || !ok2 {
			return false
		}
		if math.Abs(m2.X-k*m1.X) > 0.03*k*m1.X {
			return false
		}
		if m1.FWHM > 0 && math.Abs(m2.FWHM-k*m1.FWHM) > 0.25*k*m1.FWHM+1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Histogram counts always total the input size, whatever the range.
func TestHistogramConservationProperty(t *testing.T) {
	f := func(seed uint64, binsRaw, loRaw, hiRaw uint8) bool {
		bins := 1 + int(binsRaw)%64
		lo := float64(loRaw)
		hi := lo + 1 + float64(hiRaw)
		xs := randomSample(seed, 150)
		h := NewHistogram(xs, bins, lo, hi)
		return total(h) == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Describe and Quantile agree on the median and quartiles.
func TestDescribeQuantileAgreementProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		xs := randomSample(seed, 5+int(nRaw))
		s, err := Describe(xs)
		if err != nil {
			return false
		}
		return math.Abs(s.Median-Quantile(xs, 0.5)) < 1e-9 &&
			math.Abs(s.Q1-Quantile(xs, 0.25)) < 1e-9 &&
			math.Abs(s.Q3-Quantile(xs, 0.75)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// KMeans assignments always reference valid centers, and every center
// index in range is used or the cluster was legitimately re-seeded.
func TestKMeansAssignmentValidityProperty(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		r := rng.New(seed)
		n := 20 + r.IntN(100)
		k := 1 + int(kRaw)%6
		if n < k {
			return true
		}
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{r.Float64() * 10, r.Float64() * 10}
		}
		km, err := KMeansFit(pts, k, seed, 50)
		if err != nil {
			return false
		}
		for _, a := range km.Assignments {
			if a < 0 || a >= k {
				return false
			}
		}
		return km.Inertia >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
