package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
	s, _ := Describe(xs)
	got := s.Q3 - s.Q1
	if math.Abs(got-4) > 1e-12 {
		t.Fatalf("IQR = %v, want 4", got)
	}
}

func TestMeanStdDevHelpers(t *testing.T) {
	if _, err := Describe(nil); err == nil {
		t.Fatal("empty sample described")
	}
	s, _ := Describe([]float64{1, 3})
	if s.Mean != 2 {
		t.Fatal("Mean wrong")
	}
	if s.StdDev != 1 {
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

// sameOrderStats is sameSummary for a summary whose order statistics
// were selected rather than sorted: N, Mean and StdDev, which sum in
// input order, must keep their bits, and Min, Max, Median, Q1 and Q3
// must compare equal as floats or both be NaN. Neither sorting nor
// selection is stable, so a zero's sign and a NaN's payload at an order
// statistic depend on the algorithm.
func sameOrderStats(got, want Summary) string {
	if got.N != want.N {
		return fmt.Sprintf("N %d vs %d", got.N, want.N)
	}
	for _, f := range []struct {
		name      string
		got, want float64
		exact     bool
	}{
		{"Min", got.Min, want.Min, false}, {"Max", got.Max, want.Max, false},
		{"Mean", got.Mean, want.Mean, true}, {"Median", got.Median, want.Median, false},
		{"StdDev", got.StdDev, want.StdDev, true}, {"Q1", got.Q1, want.Q1, false}, {"Q3", got.Q3, want.Q3, false},
	} {
		same := f.got == f.want || (math.IsNaN(f.got) && math.IsNaN(f.want))
		if f.exact {
			same = sameBits(f.got, f.want)
		}
		if !same {
			return fmt.Sprintf("%s %v vs %v", f.name, f.got, f.want)
		}
	}
	return ""
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear
// interpolation between order statistics (type-7, the numpy default).
// It returns NaN for an empty sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return quantileSorted(sortedCopy(xs), q)
}

// TestDescribeIntoMatchesDescribe reuses one scratch buffer across
// samples of growing and shrinking size (so it holds stale, longer
// contents) and requires every Summary field to keep Describe's bits,
// signed zeros and NaNs included.
func TestDescribeIntoMatchesDescribe(t *testing.T) {
	bits := func(s Summary) [8]uint64 {
		return [8]uint64{uint64(s.N), math.Float64bits(s.Min), math.Float64bits(s.Max), math.Float64bits(s.Mean),
			math.Float64bits(s.Median), math.Float64bits(s.StdDev), math.Float64bits(s.Q1), math.Float64bits(s.Q3)}
	}
	var scratch []float64
	r := rng.New(11)
	for iter := 0; iter < 300; iter++ {
		xs := make([]float64, 1+r.IntN(200))
		for i := range xs {
			switch r.IntN(12) {
			case 0:
				xs[i] = math.Copysign(0, -1)
			case 1:
				xs[i] = 0
			default:
				xs[i] = float64(r.IntN(8)) * 50
				if r.IntN(2) == 0 {
					xs[i] = r.Float64() * 400
				}
			}
		}
		if iter%50 == 0 {
			xs[0] = math.NaN()
		}
		want, _ := Describe(xs)
		got, err := DescribeInto(xs, &scratch)
		if err != nil || bits(got) != bits(want) {
			t.Fatalf("iter %d: DescribeInto = %+v, %v; Describe = %+v", iter, got, err, want)
		}
	}
	if _, err := DescribeInto(nil, &scratch); err != ErrEmpty {
		t.Fatalf("empty sample: err = %v, want ErrEmpty", err)
	}
}

// FuzzDescribeInto decodes bytes into a sample (the first byte picks
// the decoding) and requires DescribeInto, which selects its order
// statistics, to agree with the sort-based describeReference; the
// scratch it is handed holds stale values from a longer sample.
func FuzzDescribeInto(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 7, 7, 3, 200, 200, 200})
	f.Add([]byte("\x00 0123456789abcdefghijklmnopqrstuvwxyz 0123456789abcdefghijklmnopqrstuvwxyz"))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("1000000\xff\xff000001\xff\xff")) // two NaN payloads
	f.Add([]byte("\x02\x00\x01\x00\x01\x00\x02\x00\x00\x01\x01\x00\x02\x02\x00\x01\x00\x00\x01\x02\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxSamples = 4096
		var xs []float64
		if len(data) > 0 {
			mode, rest := data[0]%3, data[1:]
			switch mode {
			case 0:
				// Heavily tied: one of 32 watt levels per byte.
				for _, b := range rest {
					xs = append(xs, 100+float64(b%32))
				}
			case 1:
				// Any float64, NaN and ±Inf included.
				for ; len(rest) >= 8; rest = rest[8:] {
					xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(rest)))
				}
			default:
				// Signed zeros, NaNs and one other value.
				for _, b := range rest {
					xs = append(xs, [...]float64{0, math.Copysign(0, -1), math.NaN(), 1}[b%4])
				}
			}
		}
		if len(xs) > maxSamples {
			xs = xs[:maxSamples]
		}
		scratch := make([]float64, len(xs)+7)
		for i := range scratch {
			scratch[i] = -1
		}
		want, wantErr := describeReference(xs)
		got, err := DescribeInto(xs, &scratch)
		if err != wantErr {
			t.Fatalf("DescribeInto error %v, want %v", err, wantErr)
		}
		if diff := sameOrderStats(got, want); diff != "" {
			t.Fatalf("n=%d: DescribeInto differs from the sorted reference: %s", len(xs), diff)
		}
		if len(xs) > 0 {
			sorted, perm := slices.Clone(xs), slices.Clone(scratch)
			slices.Sort(sorted)
			slices.Sort(perm)
			if !slices.EqualFunc(perm, sorted, func(a, b float64) bool {
				return a == b || (math.IsNaN(a) && math.IsNaN(b))
			}) {
				t.Fatalf("n=%d: the scratch is not a permutation of the sample", len(xs))
			}
		}
	})
}

// TestSelectAtDepthLimit: once selectAt's partitioning passes run out
// it sorts what is left, and every requested position still holds its
// sorted value.
func TestSelectAtDepthLimit(t *testing.T) {
	r := rng.New(7)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(r.IntN(40))
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	ks := []int{0, 1, 249, 250, 499, 500, 748, 749, 998, 999}
	for depth := 0; depth <= 3; depth++ {
		v := slices.Clone(xs)
		selectAt(v, 0, ks, depth)
		for _, k := range ks {
			if v[k] != sorted[k] {
				t.Fatalf("depth %d: position %d holds %v, sorted %v", depth, k, v[k], sorted[k])
			}
		}
	}
}
