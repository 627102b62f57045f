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

// Attach re-targets a cursor at a rebuilt trace (e.g. a memoized
// derived trace invalidated and recomputed); the clamped segment hint
// must never index past the new trace.
func TestCursorAttachRebuiltTrace(t *testing.T) {
	long := &Trace{}
	for i := 0; i < 10; i++ {
		long.Append(float64(i+1), float64(100+i))
	}
	c := NewCursor(long)
	_ = c.MeanBetween(8, 9) // advance deep into the trace
	short := &Trace{}
	short.Append(3, 50)
	c.Attach(short)
	if got := c.MeanBetween(0, 3); !almostEqual(got, 50, 1e-12) {
		t.Fatalf("mean after Attach = %v, want 50", got)
	}
}

func TestTraceMap(t *testing.T) {
	tr := &Trace{}
	tr.Append(2, 100)
	tr.Append(5, -40)
	clamped := tr.Map(func(p float64) float64 {
		if p < 0 {
			return 0
		}
		return p
	})
	if got := clamped.Duration(); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Map changed duration: %v", got)
	}
	if got := clamped.PowerAt(1); !almostEqual(got, 100, 1e-12) {
		t.Fatalf("Map altered positive segment: %v", got)
	}
	if got := clamped.PowerAt(4); got != 0 {
		t.Fatalf("Map did not clamp negative segment: %v", got)
	}
	// Original untouched.
	if got := tr.PowerAt(4); !almostEqual(got, -40, 1e-12) {
		t.Fatalf("Map mutated receiver: %v", got)
	}
	// Equal mapped powers merge, like any Append.
	flat := tr.Map(func(float64) float64 { return 7 })
	if got := len(flat.Segments()); got != 1 {
		t.Fatalf("mapped-constant trace has %d segments, want 1", got)
	}
}
