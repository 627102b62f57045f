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

// Sum is commutative: Sum(a,b) == Sum(b,a) pointwise.
func TestSumCommutativeProperty(t *testing.T) {
	f := func(sa, sb uint64) bool {
		a, b := genTrace(sa, 12), genTrace(sb, 12)
		ab, ba := Sum(a, b), Sum(b, a)
		if math.Abs(ab.Duration()-ba.Duration()) > 1e-9 {
			return false
		}
		for x := 0.0; x < ab.Duration(); x += ab.Duration() / 37 {
			if math.Abs(ab.PowerAt(x)-ba.PowerAt(x)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Sum is associative (up to fp tolerance): Sum(Sum(a,b),c) == Sum(a,b,c).
func TestSumAssociativeProperty(t *testing.T) {
	f := func(sa, sb, sc uint64) bool {
		a, b, c := genTrace(sa, 8), genTrace(sb, 8), genTrace(sc, 8)
		left := Sum(Sum(a, b), c)
		flat := Sum(a, b, c)
		if math.Abs(left.Energy()-flat.Energy()) > 1e-6*(1+flat.Energy()) {
			return false
		}
		for x := 0.0; x < flat.Duration(); x += flat.Duration() / 29 {
			if math.Abs(left.PowerAt(x)-flat.PowerAt(x)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Scaling by k scales energy by k and commutes with Sum.
func TestScaleLinearityProperty(t *testing.T) {
	f := func(sa, sb uint64, kRaw uint8) bool {
		k := 0.1 + float64(kRaw)/64
		a, b := genTrace(sa, 10), genTrace(sb, 10)
		lhs := Sum(a.Scale(k), b.Scale(k))
		rhs := Sum(a, b).Scale(k)
		return math.Abs(lhs.Energy()-rhs.Energy()) <= 1e-6*(1+rhs.Energy())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
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
