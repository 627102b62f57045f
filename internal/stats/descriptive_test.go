package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"vasppower/internal/rng"
)

func TestDescribeBasic(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s, err := Describe(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("N/min/max wrong: %+v", s)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", s.Mean)
	}
	if math.Abs(s.StdDev-2) > 1e-12 {
		t.Fatalf("stddev = %v, want 2", s.StdDev)
	}
	if math.Abs(s.Median-4.5) > 1e-12 {
		t.Fatalf("median = %v, want 4.5", s.Median)
	}
}

func TestDescribeEmpty(t *testing.T) {
	if _, err := Describe(nil); err != ErrEmpty {
		t.Fatalf("expected ErrEmpty, got %v", err)
	}
}

func TestDescribeSingleton(t *testing.T) {
	s, err := Describe([]float64{42})
	if err != nil {
		t.Fatal(err)
	}
	if s.Min != 42 || s.Max != 42 || s.Mean != 42 || s.Median != 42 || s.StdDev != 0 {
		t.Fatalf("singleton summary wrong: %+v", s)
	}
}

func TestDescribeConstantSample(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 7
	}
	s, _ := Describe(xs)
	if s.StdDev != 0 || s.Q1 != 7 || s.Q3 != 7 {
		t.Fatalf("constant sample summary wrong: %+v", s)
	}
}

func TestQuantileEdges(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 4 {
		t.Fatal("quantile edges wrong")
	}
	if got := Quantile(xs, 0.5); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("median quantile = %v, want 2.5", got)
	}
	// Type-7: Q1 of {1,2,3,4} = 1.75.
	if got := Quantile(xs, 0.25); math.Abs(got-1.75) > 1e-12 {
		t.Fatalf("Q1 = %v, want 1.75", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

// Property: quantile is monotone in q and bounded by [min, max].
func TestQuantileMonotoneProperty(t *testing.T) {
	st := rng.New(1)
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.IntN(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Normal(100, 30)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-9 || v < sorted[0]-1e-9 || v > sorted[n-1]+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	for i := 0; i < 100; i++ {
		if !f(st.Uint64()) {
			t.Fatal("quantile not monotone/bounded")
		}
	}
}

// Property: mean lies within [min, max]; stddev >= 0.
func TestDescribeInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s, err := Describe(xs)
		if err != nil {
			return false
		}
		return s.Mean >= s.Min-1e-6 && s.Mean <= s.Max+1e-6 && s.StdDev >= 0 &&
			s.Q1 <= s.Median+1e-9 && s.Median <= s.Q3+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIQR(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	got := IQR(xs)
	if math.Abs(got-4) > 1e-12 {
		t.Fatalf("IQR = %v, want 4", got)
	}
}

func TestMeanStdDevHelpers(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(StdDev(nil)) {
		t.Fatal("empty helpers should be NaN")
	}
	if Mean([]float64{1, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
	if StdDev([]float64{1, 3}) != 1 {
		t.Fatal("StdDev wrong")
	}
}

// describeReference is Describe as it was before the sort was shared
// with the KDE: it sorts its own copy. It pins Describe and
// DescribeKDE bit for bit.
func describeReference(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs)}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
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
	return s, nil
}

// sameBits reports whether a and b have the same bits, counting any
// two NaNs as equal: which NaN payload an operation propagates depends
// on the operand order the compiler picks, which Go does not specify.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// sameSummary reports the first field where got and want differ in
// their bits (see sameBits for NaN), or "" when they are identical.
func sameSummary(got, want Summary) string {
	if got.N != want.N {
		return fmt.Sprintf("N %d vs %d", got.N, want.N)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"Min", got.Min, want.Min}, {"Max", got.Max, want.Max},
		{"Mean", got.Mean, want.Mean}, {"Median", got.Median, want.Median},
		{"StdDev", got.StdDev, want.StdDev}, {"Q1", got.Q1, want.Q1}, {"Q3", got.Q3, want.Q3},
	} {
		if !sameBits(f.got, f.want) {
			return fmt.Sprintf("%s %v vs %v", f.name, f.got, f.want)
		}
	}
	return ""
}
