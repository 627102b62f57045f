package timeseries

import (
	"math"
	"testing"

	"vasppower/internal/rng"
)

// sampleWindowMatches checks SampleWindow against the two-step form it
// replaces, Sample(interval).Slice(start, end): equal bits in every
// sample, and nil slices exactly where Slice returns them (the profile
// codec keeps nil and empty apart).
func sampleWindowMatches(t *testing.T, tr *Trace, start, end, interval float64) {
	t.Helper()
	want := tr.Sample(interval).Slice(start, end)
	got := tr.SampleWindow(start, end, interval)
	if !seriesIdentical(got, want) {
		t.Fatalf("SampleWindow(%v, %v, %v) diverges from Sample.Slice on %+v\n got: %+v\nwant: %+v",
			start, end, interval, tr.segs, got, want)
	}
	if (got.Times == nil) != (want.Times == nil) || (got.Values == nil) != (want.Values == nil) {
		t.Fatalf("SampleWindow(%v, %v, %v): nil-ness differs: got times nil %v values nil %v, want %v %v",
			start, end, interval, got.Times == nil, got.Values == nil, want.Times == nil, want.Values == nil)
	}
	if n := len(got.Times); n > 0 && (cap(got.Times) != n || cap(got.Values) != n) {
		t.Fatalf("SampleWindow output not exact-size: len %d, caps %d/%d", n, cap(got.Times), cap(got.Values))
	}
}

func TestSampleWindowMatchesSampleSlice(t *testing.T) {
	root := rng.New(2525)
	for iter := 0; iter < 500; iter++ {
		r := rng.New(root.Uint64())
		tr := genDiffTrace(r)
		// Random intervals essentially never divide the duration, so the
		// final partial window is exercised throughout.
		interval := 0.05 + r.Float64()*3
		dur := tr.Duration()
		for _, w := range [][2]float64{
			{0, dur},                                     // the whole trace
			{r.Float64() * dur, dur},                     // after a prelude
			{r.Float64() * dur, dur + r.Float64()*5},     // end past the duration
			{r.Float64() * dur / 2, dur/2 + r.Float64()}, // interior window
			{dur + interval, dur + 3*interval},           // past the end: empty
			{dur / 2, dur / 4},                           // reversed: empty
			{-1, 0},                                      // before the first window end
			{0, math.Inf(1)},
			{math.NaN(), dur},
			{0, math.NaN()},
		} {
			sampleWindowMatches(t, tr, w[0], w[1], interval)
		}
	}
}

// TestSampleWindowPreludeBoundaries samples a run the way a measurement
// lays it out — burn-in phases, then the job — at window bounds that
// land exactly on sample instants, where [start, end] must keep both.
func TestSampleWindowPreludeBoundaries(t *testing.T) {
	tr := &Trace{}
	tr.Append(20, 1900)  // dgemm
	tr.Append(40, 1500)  // stream
	tr.Append(50, 460)   // idle
	tr.Append(50.7, 900) // job setup
	tr.Append(84, 1700)  // job body
	tr.Append(87.1, 700)
	for _, interval := range []float64{0.1, 1, 2, 2.5, 3, 7} {
		for _, w := range [][2]float64{{0, 20}, {20, 40}, {40, 50}, {50, tr.Duration()}, {50, 84}, {49.9, 50.1}} {
			sampleWindowMatches(t, tr, w[0], w[1], interval)
		}
	}
}

// FuzzSampleWindow is the differential target of SampleWindow: on any
// decoded trace, window and interval it must equal
// Sample(interval).Slice(start, end) bit for bit, nil slices included.
func FuzzSampleWindow(f *testing.F) {
	f.Add([]byte{1, 3, 4, 80, 4, 80, 8, 0}, 0.5, 2.0, uint16(100))
	f.Add([]byte{1, 0x84, 2, 1, 5, 3, 7, 200, 9, 1}, 1.25, 100.0, uint16(33))
	f.Add([]byte{1, 12, 250, 0, 0, 5, 5, 5, 5, 90, 7}, 3.0, 1.0, uint16(2))
	f.Add([]byte{1, 31, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, -1.0, 0.5, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, start, end float64, ib uint16) {
		tr := decodeFuzzTrace(data)
		// 0.01 s to about 66 s: at most ~8k windows over a fuzz trace.
		interval := 0.01 + float64(ib)*1e-3
		sampleWindowMatches(t, tr, start, end, interval)
	})
}
