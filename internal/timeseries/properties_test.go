package timeseries

import (
	"math"
	"testing"
	"testing/quick"

	"vasppower/internal/rng"
)

// Property-based tests on the trace algebra — the foundation every
// power number in the repository rests on.

// genTrace builds a random trace from a seed.
func genTrace(seed uint64, maxSegs int) *Trace {
	r := rng.New(seed)
	tr := &Trace{}
	n := 1 + r.IntN(maxSegs)
	for i := 0; i < n; i++ {
		tr.Append(tr.Duration()+0.01+r.Float64()*3, r.Float64()*500)
	}
	return tr
}

// EnergyBetween is additive over adjacent windows.
func TestEnergyWindowAdditivityProperty(t *testing.T) {
	f := func(seed uint64, cutRaw uint8) bool {
		tr := genTrace(seed, 15)
		d := tr.Duration()
		cut := d * float64(cutRaw) / 255
		whole := tr.EnergyBetween(0, d)
		parts := tr.EnergyBetween(0, cut) + tr.EnergyBetween(cut, d)
		return math.Abs(whole-parts) <= 1e-6*(1+whole)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Sampling then trapezoid-integrating approximates the exact energy
// within one sample's worth of error.
func TestSampleEnergyConsistencyProperty(t *testing.T) {
	f := func(seed uint64, ivRaw uint8) bool {
		tr := genTrace(seed, 20)
		interval := 0.05 + float64(ivRaw)/255
		s := tr.Sample(interval)
		if s.Len() < 2 {
			return true
		}
		// Riemann sum of window means over full windows is exact.
		var e float64
		prev := 0.0
		for i, tm := range s.Times {
			e += s.Values[i] * (tm - prev)
			prev = tm
		}
		return math.Abs(e-tr.Energy()) <= 500*interval+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Downsample never invents values outside the original range, at any
// interval.
func TestDownsampleRangeProperty(t *testing.T) {
	f := func(seed uint64, ivRaw uint8) bool {
		tr := genTrace(seed, 20)
		s := tr.Sample(0.1)
		if s.Len() == 0 {
			return true
		}
		d := s.Downsample(0.2 + float64(ivRaw)/50)
		if d.Len() == 0 {
			return true
		}
		return d.Min() >= s.Min()-1e-9 && d.Max() <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
