package timeseries

import (
	"math"
	"testing"

	"vasppower/internal/rng"
)

func mkSeries(interval float64, vals ...float64) Series {
	s := Series{}
	for i, v := range vals {
		s.Times = append(s.Times, float64(i+1)*interval)
		s.Values = append(s.Values, v)
	}
	return s
}

func TestSeriesValidate(t *testing.T) {
	good := mkSeries(1, 1, 2, 3)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Series{Times: []float64{1, 1}, Values: []float64{1, 2}}
	if err := bad.Validate(); err == nil {
		t.Fatal("non-increasing timestamps not rejected")
	}
	mismatch := Series{Times: []float64{1}, Values: []float64{1, 2}}
	if err := mismatch.Validate(); err == nil {
		t.Fatal("length mismatch not rejected")
	}
}

func TestSeriesStats(t *testing.T) {
	s := mkSeries(1, 5, 1, 3, 9)
	if s.Min() != 1 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if !almostEqual(s.Mean(), 4.5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean())
	}
	if !almostEqual(s.Median(), 4, 1e-12) {
		t.Fatalf("median = %v", s.Median())
	}
	odd := mkSeries(1, 5, 1, 3)
	if !almostEqual(odd.Median(), 3, 1e-12) {
		t.Fatalf("odd median = %v", odd.Median())
	}
}

func TestSeriesEmptyStats(t *testing.T) {
	var s Series
	if !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) || !math.IsNaN(s.Mean()) || !math.IsNaN(s.Median()) {
		t.Fatal("empty series stats should be NaN")
	}
}

func TestIntervalRobustToDrops(t *testing.T) {
	// Nominal 1s sampling with every other sample dropped → median gap 2s.
	s := Series{}
	tm := 0.0
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			tm = float64(i)
			s.Times = append(s.Times, tm)
			s.Values = append(s.Values, 100)
		}
	}
	if got := s.Interval(); !almostEqual(got, 2, 1e-9) {
		t.Fatalf("Interval = %v, want 2", got)
	}
}

func TestMaxGap(t *testing.T) {
	s := Series{Times: []float64{0, 1, 2, 7, 8}, Values: []float64{1, 1, 1, 1, 1}}
	if got := s.MaxGap(); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("MaxGap = %v, want 5", got)
	}
}

func TestDownsampleAveragesWindows(t *testing.T) {
	// 0.1s data, downsample to 0.5s: windows of 5 samples.
	s := Series{}
	for i := 1; i <= 10; i++ {
		s.Times = append(s.Times, float64(i)*0.1)
		s.Values = append(s.Values, float64(i))
	}
	d := s.Downsample(0.5)
	if d.Len() != 2 {
		t.Fatalf("downsampled len = %d, want 2", d.Len())
	}
	if !almostEqual(d.Values[0], 3, 1e-9) { // mean of 1..5
		t.Fatalf("first window mean = %v, want 3", d.Values[0])
	}
	if !almostEqual(d.Values[1], 8, 1e-9) { // mean of 6..10
		t.Fatalf("second window mean = %v, want 8", d.Values[1])
	}
}

func TestDownsamplePreservesGrandMean(t *testing.T) {
	st := rng.New(5)
	s := Series{}
	for i := 1; i <= 1000; i++ {
		s.Times = append(s.Times, float64(i)*0.1)
		s.Values = append(s.Values, 100+st.Float64()*200)
	}
	for _, iv := range []float64{0.2, 0.5, 1, 2, 5} {
		d := s.Downsample(iv)
		if err := d.Validate(); err != nil {
			t.Fatalf("interval %v: %v", iv, err)
		}
		// Equal-occupancy windows: grand mean preserved to within the
		// partial-window edge effect.
		if math.Abs(d.Mean()-s.Mean()) > 5 {
			t.Fatalf("interval %v: mean drifted %v -> %v", iv, s.Mean(), d.Mean())
		}
	}
}

func TestDownsampleNarrowsRange(t *testing.T) {
	// Averaging cannot extend the range.
	st := rng.New(9)
	s := Series{}
	for i := 1; i <= 500; i++ {
		s.Times = append(s.Times, float64(i)*0.1)
		s.Values = append(s.Values, st.Float64()*400)
	}
	d := s.Downsample(2)
	if d.Min() < s.Min()-1e-9 || d.Max() > s.Max()+1e-9 {
		t.Fatal("downsampling extended the value range")
	}
	if d.Max()-d.Min() > s.Max()-s.Min() {
		t.Fatal("downsampling widened the range")
	}
}

func TestSlice(t *testing.T) {
	s := mkSeries(1, 10, 20, 30, 40, 50)
	sub := s.Slice(2, 4)
	if sub.Len() != 3 {
		t.Fatalf("slice len = %d, want 3", sub.Len())
	}
	if sub.Values[0] != 20 || sub.Values[2] != 40 {
		t.Fatalf("slice values wrong: %v", sub.Values)
	}
}

func TestSeriesEnergyTrapezoid(t *testing.T) {
	s := mkSeries(1, 100, 100, 100)
	// Two intervals of 1s at 100 W.
	if got := s.Energy(); !almostEqual(got, 200, 1e-9) {
		t.Fatalf("Energy = %v, want 200", got)
	}
}

func TestDrop(t *testing.T) {
	s := mkSeries(1, 1, 2, 3, 4)
	d := s.Drop(func(i int) bool { return i%2 == 0 })
	if d.Len() != 2 || d.Values[0] != 1 || d.Values[1] != 3 {
		t.Fatalf("Drop wrong: %+v", d)
	}
}
