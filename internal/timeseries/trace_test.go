package timeseries

import (
	"math"
	"testing"
	"testing/quick"

	"vasppower/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAppendAndDuration(t *testing.T) {
	tr := &Trace{}
	tr.Append(2, 100)
	tr.Append(3, 200)
	if got := tr.Duration(); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Duration = %v, want 5", got)
	}
	if got := tr.Energy(); !almostEqual(got, 2*100+3*200, 1e-9) {
		t.Fatalf("Energy = %v, want 800", got)
	}
}

func TestAppendMergesEqualPower(t *testing.T) {
	tr := &Trace{}
	tr.Append(1, 100)
	tr.Append(1, 100)
	tr.Append(1, 200)
	if tr.Len() != 2 {
		t.Fatalf("expected merged segments, got %d", tr.Len())
	}
}

func TestAppendZeroDurationIgnored(t *testing.T) {
	tr := &Trace{}
	tr.Append(0, 100)
	if tr.Len() != 0 {
		t.Fatal("zero-duration segment was stored")
	}
}

func TestAppendNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration did not panic")
		}
	}()
	(&Trace{}).Append(-1, 0)
}

func TestPowerAt(t *testing.T) {
	tr := &Trace{}
	tr.Append(2, 100)
	tr.Append(2, 300)
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
	tr.Append(2, 300)
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
	tr.Append(2, 300)
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
	tr.Append(3, 250)
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

func TestSumBasic(t *testing.T) {
	a := &Trace{}
	a.Append(2, 100)
	b := &Trace{}
	b.Append(1, 50)
	b.Append(2, 10)
	sum := Sum(a, b)
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
	if got := Sum(); got.Len() != 0 {
		t.Fatal("Sum() of nothing not empty")
	}
	if got := Sum(&Trace{}, &Trace{}); got.Len() != 0 {
		t.Fatal("Sum of empty traces not empty")
	}
}

// Property: energy is additive under Sum for random traces.
func TestSumEnergyAdditiveProperty(t *testing.T) {
	s := rng.New(404)
	f := func(seed uint64) bool {
		st := rng.New(seed)
		mk := func() *Trace {
			tr := &Trace{}
			n := 1 + st.IntN(20)
			for i := 0; i < n; i++ {
				tr.Append(0.01+st.Float64()*5, st.Float64()*400)
			}
			return tr
		}
		a, b, c := mk(), mk(), mk()
		sum := Sum(a, b, c)
		want := a.Energy() + b.Energy() + c.Energy()
		return almostEqual(sum.Energy(), want, 1e-6*(1+want))
	}
	for i := 0; i < 50; i++ {
		if !f(s.Uint64()) {
			t.Fatal("energy not additive under Sum")
		}
	}
}

func TestScaleAndShift(t *testing.T) {
	tr := &Trace{}
	tr.Append(2, 100)
	sc := tr.Scale(0.5)
	if !almostEqual(sc.Energy(), 100, 1e-9) {
		t.Fatalf("scaled energy = %v, want 100", sc.Energy())
	}
	sh := tr.Shift(3)
	if !almostEqual(sh.Duration(), 5, 1e-9) {
		t.Fatalf("shifted duration = %v, want 5", sh.Duration())
	}
	if sh.PowerAt(1) != 0 || sh.PowerAt(4) != 100 {
		t.Fatal("shifted trace has wrong profile")
	}
	if !almostEqual(sh.Energy(), tr.Energy(), 1e-9) {
		t.Fatal("shift changed energy")
	}
}

func TestSamplePreservesMeanEnergy(t *testing.T) {
	tr := &Trace{}
	st := rng.New(7)
	for i := 0; i < 50; i++ {
		tr.Append(0.1+st.Float64()*2, st.Float64()*400)
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
			tr.Append(0.05+st.Float64()*3, 50+st.Float64()*350)
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
