// Package timeseries provides the two time-domain representations used
// throughout the simulator:
//
//   - Trace: an exact, piecewise-constant power signal produced by the
//     hardware models (a kernel draws P watts until the clock reads t).
//     Traces support exact energy integration over any window; a node
//     records every power scope it reports as a trace of its own, on
//     the same instants as its component traces.
//
//   - Series: a sampled signal, as a telemetry system like LDMS would
//     record it. Series are produced by sampling a Trace at an interval
//     and support the window-average down-sampling the paper applies to
//     its 0.1 s data (Fig. 2).
package timeseries

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Segment is one constant-power span of a Trace: it holds Power from
// the previous segment's End (0 for the first segment) up to its own.
type Segment struct {
	End   float64 // seconds since the trace origin
	Power float64 // watts
}

// Trace is a piecewise-constant power signal starting at 0. Segments
// are contiguous and ordered; gaps are not allowed (append zero-power
// segments to represent idle time). Storing each segment's end instant
// rather than its duration keeps instants exact: writers that append
// up to the same clock reading share one float per boundary, in every
// trace. The zero value is an empty trace ready to use.
type Trace struct {
	segs []Segment
}

// Append extends the trace to the instant end at the given power. An
// end at the trace's current end is ignored; an end before it (or NaN)
// panics (it indicates a simulator bug).
func (t *Trace) Append(end, power float64) {
	d := t.Duration()
	if !(end >= d) {
		panic(fmt.Sprintf("timeseries: segment end %v before the trace end %v", end, d))
	}
	if end == d {
		return
	}
	// Merge with the previous segment when power is identical; keeps
	// traces compact when a phase emits many same-power kernels.
	if n := len(t.segs); n > 0 && t.segs[n-1].Power == power {
		t.segs[n-1].End = end
		return
	}
	t.segs = append(t.segs, Segment{End: end, Power: power})
}

// Grow makes room for n more segments without reallocating, so a
// writer that knows how many segments it will append (one per
// recorded step at most) allocates the storage once.
func (t *Trace) Grow(n int) { t.segs = slices.Grow(t.segs, n) }

// Segments returns the underlying segments (not a copy; callers must
// not mutate).
func (t *Trace) Segments() []Segment { return t.segs }

// Reset empties the trace while keeping its segment storage for reuse
// — the arena primitive behind incremental sweeps, where the same
// traces are rebuilt once per cap point.
func (t *Trace) Reset() { t.segs = t.segs[:0] }

// Duration returns the total trace duration in seconds: the last
// segment's end.
func (t *Trace) Duration() float64 {
	if len(t.segs) == 0 {
		return 0
	}
	return t.segs[len(t.segs)-1].End
}

// start returns segment i's start instant: the previous segment's end.
func (t *Trace) start(i int) float64 {
	if i == 0 {
		return 0
	}
	return t.segs[i-1].End
}

// Energy returns the exact integral of power over time, in joules.
func (t *Trace) Energy() float64 {
	var e, prev float64
	for _, s := range t.segs {
		e += s.Power * (s.End - prev)
		prev = s.End
	}
	return e
}

// MaxPower returns the maximum segment power (0 for an empty trace).
func (t *Trace) MaxPower() float64 {
	m := 0.0
	for i, s := range t.segs {
		if i == 0 || s.Power > m {
			m = s.Power
		}
	}
	return m
}

// PowerAt returns the power at time x. Times before the trace return
// the first segment's power; times at or beyond the end return the
// last segment's power (a sensor polled "just after" a job sees the
// final state). An empty trace returns 0.
func (t *Trace) PowerAt(x float64) float64 {
	n := len(t.segs)
	if n == 0 {
		return 0
	}
	// Binary search for the segment containing x.
	i := sort.Search(n, func(i int) bool { return t.segs[i].End > x })
	if i == n {
		return t.segs[n-1].Power
	}
	return t.segs[i].Power
}

// EnergyBetween integrates power over [a, b] exactly. Portions outside
// the trace contribute nothing. Returns 0 if b <= a.
//
// Cost is O(log n + w) for a window overlapping w segments: a binary
// search locates the first segment ending after a, and the scan stops
// at the first segment starting at or after b. Segments outside that
// range contribute nothing to a full scan, so restricting to it leaves
// the sum — and its floating-point addition order — bit-identical
// (pinned against energyBetweenReference by the differential tests).
func (t *Trace) EnergyBetween(a, b float64) float64 {
	if b <= a || len(t.segs) == 0 {
		return 0
	}
	i := sort.Search(len(t.segs), func(i int) bool { return t.segs[i].End > a })
	var e float64
	for ; i < len(t.segs) && t.start(i) < b; i++ {
		lo := math.Max(a, t.start(i))
		hi := math.Min(b, t.segs[i].End)
		if hi > lo {
			e += t.segs[i].Power * (hi - lo)
		}
	}
	return e
}

// MeanBetween returns the average power over the window [a, b],
// counting only the portion covered by the trace. Returns 0 when the
// window does not overlap the trace.
func (t *Trace) MeanBetween(a, b float64) float64 {
	if b <= a || len(t.segs) == 0 {
		return 0
	}
	covLo := math.Max(a, 0)
	covHi := math.Min(b, t.Duration())
	if covHi <= covLo {
		return 0
	}
	return t.EnergyBetween(a, b) / (covHi - covLo)
}

// Sample produces a Series by averaging the trace over consecutive
// windows of length interval seconds, timestamping each sample at the
// window end (as a polling sampler would). The final partial window,
// if any, is averaged over the covered portion.
//
// Sampling a whole trace is O(n + m) for n segments and m windows: a
// segment cursor carries across windows instead of every window
// rescanning all segments (O(n·m) before). Values are bit-identical
// to the reference (pinned against sampleReference): segments skipped
// by the cursor contributed +0.0 to each window's energy, so the
// in-order summation over overlapping segments is unchanged.
func (t *Trace) Sample(interval float64) Series {
	if interval <= 0 {
		panic("timeseries: non-positive sampling interval")
	}
	dur := t.Duration()
	n := int(math.Ceil(dur/interval - 1e-9))
	if n < 0 {
		n = 0
	}
	s := Series{
		Times:  make([]float64, 0, n),
		Values: make([]float64, 0, n),
	}
	cur := 0
	for i := 0; i < n; i++ {
		a := float64(i) * interval
		b := math.Min(a+interval, dur)
		s.Times = append(s.Times, b)
		s.Values = append(s.Values, t.meanBetweenFrom(&cur, a, b))
	}
	countSamples(n)
	return s
}

// SampleWindow returns Sample(interval).Slice(start, end) bit for bit
// — the same window instants, the same cursor arithmetic — while
// sampling only the windows whose end lies in [start, end], straight
// into an output allocated once at its exact size. Both slices are nil
// when no window end falls in [start, end], as Slice returns them.
//
// Window ends are non-decreasing in the window index, so the kept
// windows are one index range, found by binary search; the segment
// cursor starts where Sample's would stand at the first kept window:
// on the first segment ending after that window's start.
func (t *Trace) SampleWindow(start, end, interval float64) Series {
	if interval <= 0 {
		panic("timeseries: non-positive sampling interval")
	}
	dur := t.Duration()
	n := int(math.Ceil(dur/interval - 1e-9))
	if n < 0 {
		n = 0
	}
	windowEnd := func(i int) float64 {
		a := float64(i) * interval
		return math.Min(a+interval, dur)
	}
	// !(x <= end) rather than x > end, so a NaN bound keeps nothing,
	// as in Slice.
	lo := sort.Search(n, func(i int) bool { return windowEnd(i) >= start })
	hi := sort.Search(n, func(i int) bool { return !(windowEnd(i) <= end) })
	if hi <= lo {
		return Series{}
	}
	s := Series{Times: make([]float64, hi-lo), Values: make([]float64, hi-lo)}
	a0 := float64(lo) * interval
	cur := sort.Search(len(t.segs), func(j int) bool { return t.segs[j].End > a0 })
	for i := lo; i < hi; i++ {
		a := float64(i) * interval
		b := math.Min(a+interval, dur)
		s.Times[i-lo] = b
		s.Values[i-lo] = t.meanBetweenFrom(&cur, a, b)
	}
	countSamples(hi - lo)
	return s
}

// meanBetweenFrom is MeanBetween with a resumable segment cursor:
// *cur is advanced past segments that end at or before a, so sampling
// consecutive windows visits each segment O(1) times overall (the
// last overlapping segment is re-examined by the next window, which
// amortizes to a constant). Window starts must be non-decreasing
// across calls sharing a cursor. The guard structure and the
// per-segment additions mirror meanBetweenReference exactly.
func (t *Trace) meanBetweenFrom(cur *int, a, b float64) float64 {
	if b <= a || len(t.segs) == 0 {
		return 0
	}
	covLo := math.Max(a, 0)
	covHi := math.Min(b, t.Duration())
	if covHi <= covLo {
		return 0
	}
	for *cur < len(t.segs) && t.segs[*cur].End <= a {
		*cur++
	}
	var e float64
	for j := *cur; j < len(t.segs) && t.start(j) < b; j++ {
		lo := math.Max(a, t.start(j))
		hi := math.Min(b, t.segs[j].End)
		if hi > lo {
			e += t.segs[j].Power * (hi - lo)
		}
	}
	return e / (covHi - covLo)
}

// Cursor is an exported resumable window reader over a Trace — the
// same segment-cursor walk Sample uses internally, packaged for
// callers that read a growing trace incrementally (the streaming
// telemetry sampler). Successive window starts must be non-decreasing;
// each segment is then visited O(1) times amortized across the whole
// walk instead of O(log n) per window. A cursor does not own the
// trace: appends to it stay visible to later windows.
type Cursor struct {
	tr  *Trace
	seg int
}

// NewCursor returns a cursor positioned at the start of tr.
func NewCursor(tr *Trace) *Cursor { return &Cursor{tr: tr} }

// MeanBetween returns the trace's average power over [a, b], counting
// only the covered portion (semantics of Trace.MeanBetween), resuming
// from the cursor's position. Window starts must not decrease across
// calls.
func (c *Cursor) MeanBetween(a, b float64) float64 {
	return c.tr.meanBetweenFrom(&c.seg, a, b)
}
