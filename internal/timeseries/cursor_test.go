package timeseries

import (
	"testing"

	"vasppower/internal/rng"
)

// Property: a Cursor walking forward returns exactly what the
// stateless MeanBetween returns, for random traces and random
// monotone window sequences.
func TestCursorMatchesMeanBetween(t *testing.T) {
	root := rng.New(404)
	for trial := 0; trial < 50; trial++ {
		r := rng.New(root.Uint64())
		tr := &Trace{}
		for i := 0; i < 40; i++ {
			tr.Append(tr.Duration()+0.01+r.Float64()*3, r.Float64()*500)
		}
		c := NewCursor(tr)
		a := 0.0
		for a < tr.Duration() {
			b := a + 0.005 + r.Float64()*2
			got, want := c.MeanBetween(a, b), tr.MeanBetween(a, b)
			if !almostEqual(got, want, 1e-9) {
				t.Fatalf("trial %d: cursor mean over [%v,%v] = %v, want %v", trial, a, b, got, want)
			}
			a = b
		}
	}
}

// A cursor survives Appends to its trace: new windows past the old
// end see the new segments without rewinding.
func TestCursorSeesAppendedSegments(t *testing.T) {
	tr := &Trace{}
	tr.Append(2, 100)
	c := NewCursor(tr)
	if got := c.MeanBetween(0, 2); !almostEqual(got, 100, 1e-12) {
		t.Fatalf("initial mean = %v", got)
	}
	tr.Append(4, 300)
	if got := c.MeanBetween(2, 4); !almostEqual(got, 300, 1e-12) {
		t.Fatalf("post-append mean = %v, want 300", got)
	}
}

// A cursor opened on an empty trace reads the segments appended after
// it, as the telemetry sampler's cursors on a node's recorded scopes
// do: windows past the end read 0 and do not move the cursor, and
// later windows match the stateless MeanBetween.
func TestCursorOpenedOnEmptyTrace(t *testing.T) {
	tr := &Trace{}
	c := NewCursor(tr)
	if got := c.MeanBetween(0, 1); got != 0 {
		t.Fatalf("mean over an empty trace = %v, want 0", got)
	}
	for i := 0; i < 10; i++ {
		tr.Append(float64(i+1), float64(100+i))
	}
	for a := 0.0; a < 10; a += 0.75 {
		if got, want := c.MeanBetween(a, a+0.75), tr.MeanBetween(a, a+0.75); got != want {
			t.Fatalf("cursor mean over [%v,%v] = %v, want %v", a, a+0.75, got, want)
		}
	}
}
