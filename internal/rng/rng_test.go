package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestSeedsProduceDistinctStreams(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	a := root.Split("node0")
	b := root.Split("node1")
	a2 := root.Split("node0")
	// Same label twice (without advancing the parent) is reproducible.
	for i := 0; i < 100; i++ {
		if a.Uint64() != a2.Uint64() {
			t.Fatalf("same-label splits diverged at draw %d", i)
		}
	}
	// Distinct labels give distinct streams.
	c := root.Split("node0")
	d := root.Split("node1")
	_ = b
	diff := false
	for i := 0; i < 10; i++ {
		if c.Uint64() != d.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("distinct labels produced identical streams")
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(99)
	b := New(99)
	_ = a.Split("x")
	_ = a.Split("y")
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split advanced the parent stream")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ≈ 0.5", mean)
	}
}

func TestIntNBounds(t *testing.T) {
	s := New(11)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := s.IntN(7)
		if v < 0 || v >= 7 {
			t.Fatalf("IntN(7) out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("IntN(7) bucket %d count %d far from uniform (10000)", i, c)
		}
	}
}

func TestIntNPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntN(0) did not panic")
		}
	}()
	New(1).IntN(0)
}

func TestNormalMoments(t *testing.T) {
	s := New(17)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Normal(10, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean = %v, want ≈ 10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("normal stddev = %v, want ≈ 3", math.Sqrt(variance))
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(23)
	for i := 0; i < 10000; i++ {
		if v := s.LogNormal(0, 0.5); v <= 0 {
			t.Fatalf("LogNormal produced non-positive value %v", v)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(29)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exponential(4)
		if v < 0 {
			t.Fatalf("Exponential produced negative value %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-4) > 0.1 {
		t.Fatalf("exponential mean = %v, want ≈ 4", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(41)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) hit rate = %v", frac)
	}
}

// Property: mul64 agrees with big-integer multiplication for the low
// and high words (checked against the math/bits identity using the
// schoolbook decomposition with independent operands).
func TestMul64Property(t *testing.T) {
	f := func(x, y uint64) bool {
		hi, lo := mul64(x, y)
		// Verify lo is the truncated product.
		if lo != x*y {
			return false
		}
		// Verify hi via decomposition into 32-bit halves, computed
		// with a different association order.
		const mask = 1<<32 - 1
		a, b := x>>32, x&mask
		c, d := y>>32, y&mask
		bd := b * d
		ad := a * d
		bc := b * c
		mid := ad&mask + bc&mask + bd>>32
		wantHi := a*c + ad>>32 + bc>>32 + mid>>32
		return hi == wantHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: splitting with any label yields a working stream whose
// uniform outputs stay in range.
func TestSplitAnyLabelProperty(t *testing.T) {
	root := New(1234)
	f := func(label string) bool {
		s := root.Split(label)
		for i := 0; i < 16; i++ {
			if v := s.Float64(); v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = s.Uint64()
	}
	_ = sink
}

func BenchmarkNormal(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = s.Normal(0, 1)
	}
	_ = sink
}
