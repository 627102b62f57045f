package timeseries

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"vasppower/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAppendAndDuration(t *testing.T) {
	tr := &Trace{}
	tr.Append(2, 100)
	tr.Append(5, 200)
	if got := tr.Duration(); got != 5 {
		t.Fatalf("Duration = %v, want 5", got)
	}
	if got := tr.Energy(); !almostEqual(got, 2*100+3*200, 1e-9) {
		t.Fatalf("Energy = %v, want 800", got)
	}
}

func TestAppendMergesEqualPower(t *testing.T) {
	tr := &Trace{}
	tr.Append(1, 100)
	tr.Append(2, 100)
	tr.Append(3, 200)
	if want := []Segment{{2, 100}, {3, 200}}; !slices.Equal(tr.segs, want) {
		t.Fatalf("segments %+v, want %+v", tr.segs, want)
	}
}

func TestAppendZeroDurationIgnored(t *testing.T) {
	tr := &Trace{}
	tr.Append(0, 100)
	if tr.Len() != 0 {
		t.Fatal("zero-length segment was stored")
	}
	tr.Append(1, 100)
	tr.Append(1, 200)
	if want := []Segment{{1, 100}}; !slices.Equal(tr.segs, want) {
		t.Fatalf("segments %+v, want %+v", tr.segs, want)
	}
}

func TestAppendNegativePanics(t *testing.T) {
	for _, end := range []float64{-1, 1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("end %v before the trace end 2 did not panic", end)
				}
			}()
			tr := &Trace{}
			tr.Append(2, 0)
			tr.Append(end, 0)
		}()
	}
}

func TestPowerAt(t *testing.T) {
	tr := &Trace{}
	tr.Append(2, 100)
	tr.Append(4, 300)
	cases := []struct{ x, want float64 }{
		{-1, 100}, {0, 100}, {1.9, 100}, {2.0, 300}, {3.5, 300}, {4.0, 300}, {10, 300},
	}
	for _, c := range cases {
		if got := tr.PowerAt(c.x); got != c.want {
			t.Errorf("PowerAt(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestEnergyBetween(t *testing.T) {
	tr := &Trace{}
	tr.Append(2, 100)
	tr.Append(4, 300)
	if got := tr.EnergyBetween(1, 3); !almostEqual(got, 100+300, 1e-9) {
		t.Fatalf("EnergyBetween(1,3) = %v, want 400", got)
	}
	if got := tr.EnergyBetween(3, 1); got != 0 {
		t.Fatalf("EnergyBetween(3,1) = %v, want 0", got)
	}
	if got := tr.EnergyBetween(-5, 100); !almostEqual(got, tr.Energy(), 1e-9) {
		t.Fatalf("EnergyBetween over-wide = %v, want %v", got, tr.Energy())
	}
}

func TestMeanBetween(t *testing.T) {
	tr := &Trace{}
	tr.Append(2, 100)
	tr.Append(4, 300)
	if got := tr.MeanBetween(0, 4); !almostEqual(got, 200, 1e-9) {
		t.Fatalf("MeanBetween full = %v, want 200", got)
	}
	// Window extends past the trace end: average only over covered part.
	if got := tr.MeanBetween(3, 10); !almostEqual(got, 300, 1e-9) {
		t.Fatalf("MeanBetween(3,10) = %v, want 300", got)
	}
}

func TestMinMaxMeanPower(t *testing.T) {
	tr := &Trace{}
	tr.Append(1, 50)
	tr.Append(4, 250)
	if minPower(tr) != 50 || tr.MaxPower() != 250 {
		t.Fatalf("min/max = %v/%v", minPower(tr), tr.MaxPower())
	}
	want := (50*1 + 250*3) / 4.0
	if got := tr.MeanBetween(0, tr.Duration()); !almostEqual(got, want, 1e-9) {
		t.Fatalf("mean power = %v, want %v", got, want)
	}
}

func TestEmptyTraceBehavior(t *testing.T) {
	tr := &Trace{}
	if tr.Duration() != 0 || tr.Energy() != 0 || tr.MeanBetween(0, 1) != 0 {
		t.Fatal("empty trace has non-zero aggregates")
	}
	if tr.PowerAt(1) != 0 {
		t.Fatal("empty trace PowerAt != 0")
	}
}

// TestSumBasic and TestSumEmpty pin sumReference, the merge the
// recorded node sensor and board sum are checked against: it adds
// overlapping powers and reads a trace as zero beyond its end.
func TestSumBasic(t *testing.T) {
	a := &Trace{}
	a.Append(2, 100)
	b := &Trace{}
	b.Append(1, 50)
	b.Append(3, 10)
	sum := sumReference(a, b)
	if !almostEqual(sum.Duration(), 3, 1e-9) {
		t.Fatalf("sum duration = %v, want 3", sum.Duration())
	}
	if got := sum.PowerAt(0.5); !almostEqual(got, 150, 1e-9) {
		t.Fatalf("sum@0.5 = %v, want 150", got)
	}
	if got := sum.PowerAt(1.5); !almostEqual(got, 110, 1e-9) {
		t.Fatalf("sum@1.5 = %v, want 110", got)
	}
	if got := sum.PowerAt(2.5); !almostEqual(got, 10, 1e-9) {
		t.Fatalf("sum@2.5 = %v, want 10", got)
	}
	if !almostEqual(sum.Energy(), a.Energy()+b.Energy(), 1e-6) {
		t.Fatalf("sum energy %v != %v", sum.Energy(), a.Energy()+b.Energy())
	}
}

func TestSumEmpty(t *testing.T) {
	if got := sumReference(); got.Len() != 0 {
		t.Fatal("Sum() of nothing not empty")
	}
	if got := sumReference(&Trace{}, &Trace{}); got.Len() != 0 {
		t.Fatal("Sum of empty traces not empty")
	}
}

func TestSamplePreservesMeanEnergy(t *testing.T) {
	tr := &Trace{}
	st := rng.New(7)
	for i := 0; i < 50; i++ {
		tr.Append(tr.Duration()+0.1+st.Float64()*2, st.Float64()*400)
	}
	s := tr.Sample(0.5)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Window-averaged samples weighted by window lengths reproduce the
	// exact energy (each full window's mean × interval = window energy).
	var e float64
	prev := 0.0
	for i, tm := range s.Times {
		e += s.Values[i] * (tm - prev)
		prev = tm
	}
	// Final window may be partial; recompute its contribution exactly.
	if !almostEqual(e, tr.Energy(), 1e-6*(1+tr.Energy())+0.5*400) {
		t.Fatalf("sampled energy %v vs exact %v", e, tr.Energy())
	}
}

func TestSampleCount(t *testing.T) {
	tr := &Trace{}
	tr.Append(10, 100)
	s := tr.Sample(2)
	if s.Len() != 5 {
		t.Fatalf("10s trace at 2s interval: %d samples, want 5", s.Len())
	}
	for _, v := range s.Values {
		if !almostEqual(v, 100, 1e-9) {
			t.Fatalf("constant trace sampled to %v", v)
		}
	}
}

// Property: for any random trace, Sample(interval).Validate() passes
// and all sampled values lie within [minPower, MaxPower].
func TestSampleBoundsProperty(t *testing.T) {
	f := func(seed uint64, k uint8) bool {
		st := rng.New(seed)
		tr := &Trace{}
		n := 1 + st.IntN(30)
		for i := 0; i < n; i++ {
			tr.Append(tr.Duration()+0.05+st.Float64()*3, 50+st.Float64()*350)
		}
		interval := 0.1 + float64(k%50)/10
		s := tr.Sample(interval)
		if err := s.Validate(); err != nil {
			return false
		}
		lo, hi := minPower(tr), tr.MaxPower()
		for _, v := range s.Values {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// minPower returns the minimum segment power (0 for an empty trace).
func minPower(tr *Trace) float64 {
	if len(tr.segs) == 0 {
		return 0
	}
	m := tr.segs[0].Power
	for _, s := range tr.segs[1:] {
		m = math.Min(m, s.Power)
	}
	return m
}
