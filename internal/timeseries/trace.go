// Package timeseries provides the two time-domain representations used
// throughout the simulator:
//
//   - Trace: an exact, piecewise-constant power signal produced by the
//     hardware models (a kernel draws P watts for d seconds). Traces
//     support exact energy integration and pointwise algebra, which is
//     how a node's total power is assembled from its components.
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

// Segment is one constant-power span of a Trace.
type Segment struct {
	Start float64 // seconds since trace origin
	Dur   float64 // seconds, > 0
	Power float64 // watts
}

// End returns the segment's end time.
func (s Segment) End() float64 { return s.Start + s.Dur }

// Trace is a piecewise-constant power signal. Segments are contiguous
// and ordered; gaps are not allowed (append zero-power segments to
// represent idle time). The zero value is an empty trace ready to use.
type Trace struct {
	segs []Segment
}

// Append adds a constant-power span of the given duration to the end of
// the trace. Zero-duration spans are ignored; negative durations panic
// (they indicate a simulator bug).
func (t *Trace) Append(dur, power float64) {
	if dur < 0 {
		panic(fmt.Sprintf("timeseries: negative segment duration %v", dur))
	}
	if dur == 0 {
		return
	}
	start := t.Duration()
	// Merge with the previous segment when power is identical; keeps
	// traces compact when a phase emits many same-power kernels.
	if n := len(t.segs); n > 0 && t.segs[n-1].Power == power {
		t.segs[n-1].Dur += dur
		return
	}
	t.segs = append(t.segs, Segment{Start: start, Dur: dur, Power: power})
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
// traces are rebuilt once per cap point. Derived traces previously
// handed out (Sum results, memoized node sensors) are unaffected: they
// own fresh storage.
func (t *Trace) Reset() { t.segs = t.segs[:0] }

// Len returns the number of segments.
func (t *Trace) Len() int { return len(t.segs) }

// Duration returns the total trace duration in seconds.
func (t *Trace) Duration() float64 {
	if len(t.segs) == 0 {
		return 0
	}
	last := t.segs[len(t.segs)-1]
	return last.Start + last.Dur
}

// Energy returns the exact integral of power over time, in joules.
func (t *Trace) Energy() float64 {
	var e float64
	for _, s := range t.segs {
		e += s.Power * s.Dur
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
	if x < t.segs[0].Start {
		return t.segs[0].Power
	}
	// Binary search for the segment containing x.
	i := sort.Search(n, func(i int) bool { return t.segs[i].End() > x })
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
// range contributed nothing to the original full scan, so restricting
// to it leaves the sum — and its floating-point addition order —
// bit-identical (pinned against energyBetweenReference by the
// differential tests).
func (t *Trace) EnergyBetween(a, b float64) float64 {
	if b <= a || len(t.segs) == 0 {
		return 0
	}
	i := sort.Search(len(t.segs), func(i int) bool { return t.segs[i].End() > a })
	var e float64
	for ; i < len(t.segs) && t.segs[i].Start < b; i++ {
		lo := math.Max(a, t.segs[i].Start)
		hi := math.Min(b, t.segs[i].End())
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
	covLo := math.Max(a, t.segs[0].Start)
	covHi := math.Min(b, t.Duration())
	if covHi <= covLo {
		return 0
	}
	return t.EnergyBetween(a, b) / (covHi - covLo)
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	c := &Trace{segs: make([]Segment, len(t.segs))}
	copy(c.segs, t.segs)
	return c
}

// Scale returns a new trace with every power value multiplied by k.
func (t *Trace) Scale(k float64) *Trace {
	c := t.Clone()
	for i := range c.segs {
		c.segs[i].Power *= k
	}
	return c
}

// AddConstant returns a new trace with k added to every power value
// (how the node sensor layers the unmetered peripheral draw onto the
// component sum). The result is built through Append into a
// preallocated trace, so adjacent segments whose offset powers round
// to the same value merge exactly as if appended directly.
func (t *Trace) AddConstant(k float64) *Trace {
	return t.AddConstantInto(&Trace{segs: make([]Segment, 0, len(t.segs))}, k)
}

// AddConstantInto is AddConstant into a caller-owned trace, reusing
// dst's segment storage (the sweep engine's arena form). dst is reset
// first and must not be t; values are identical to AddConstant's.
func (t *Trace) AddConstantInto(dst *Trace, k float64) *Trace {
	dst.segs = dst.segs[:0]
	for _, s := range t.segs {
		dst.Append(s.Dur, s.Power+k)
	}
	return dst
}

// Map returns a new trace with every power value replaced by f(power).
// The result is rebuilt through Append, so adjacent segments whose
// mapped powers coincide merge (the same contract as AddConstant).
func (t *Trace) Map(f func(p float64) float64) *Trace {
	c := &Trace{segs: make([]Segment, 0, len(t.segs))}
	for _, s := range t.segs {
		c.Append(s.Dur, f(s.Power))
	}
	return c
}

// Shift returns a new trace whose origin is moved by dt seconds
// (dt >= 0): a zero-power segment of length dt is prepended.
func (t *Trace) Shift(dt float64) *Trace {
	if dt < 0 {
		panic("timeseries: negative shift")
	}
	c := &Trace{}
	if dt > 0 {
		c.Append(dt, 0)
	}
	for _, s := range t.segs {
		c.Append(s.Dur, s.Power)
	}
	return c
}

// sumCursor tracks one non-empty input trace through the k-way merge
// in Sum. bi walks the trace's boundary stream — Start then End of
// each segment, in order, 2n points total — and si walks segments for
// the power lookup (query midpoints are non-decreasing, so si only
// moves forward).
type sumCursor struct {
	segs []Segment
	dur  float64
	bi   int // next boundary index in [0, 2·len(segs)]
	si   int // current segment for power lookups
}

// boundary returns the cursor's next unconsumed breakpoint.
func (c *sumCursor) boundary() float64 {
	if c.bi%2 == 0 {
		return c.segs[c.bi/2].Start
	}
	return c.segs[c.bi/2].End()
}

// Sum returns the pointwise sum of the given traces. Each input is
// treated as zero outside its own duration, so traces of different
// lengths may be summed; the result spans the longest input. The sum
// of zero traces is an empty trace.
//
// Sum is a k-way cursor merge over the inputs' segment boundaries.
// Each trace's boundary stream is sorted (segments are contiguous with
// positive durations). After a breakpoint prev is kept, every cursor
// skips its boundaries v with v−prev ≤ eps, and the smallest boundary
// left across the cursors is the next breakpoint kept. IEEE
// subtraction is monotone, so those skipped boundaries are a prefix
// of each stream and exactly the ones the reference's sorted,
// eps-deduplicated breakpoint list drops: the kept breakpoints, the
// interval midpoints and the per-interval power sums (added in
// argument order) match sumReference bit for bit (pinned by the
// differential tests and FuzzSum). The cost is O(k) per kept
// breakpoint plus O(1) per skipped boundary: O(K·k + B) for K kept
// breakpoints and B boundaries across k traces. A node's component
// traces share most boundaries, so K is about B/(2k).
func Sum(traces ...*Trace) *Trace {
	return SumInto(&Trace{}, traces...)
}

// SumInto computes Sum(traces...) into dst, reusing dst's segment
// storage across calls — the allocation-free form the node sensor
// uses to rebuild its trace once per cap point. dst is reset first
// and must not be one of the inputs. The merged values are
// bit-identical to Sum's (it is the same cursor merge).
//
// Fresh storage is sized at the longest input plus one segment: the
// sum of aligned traces — a node's components, recorded in lockstep —
// has about as many segments as its finest input. A merge that
// outgrows it (traces whose boundaries rarely coincide) grows once, to
// the bound Σn + k on the output of k traces with Σn segments in all,
// rather than doubling its way there.
func SumInto(dst *Trace, traces ...*Trace) *Trace {
	const eps = 1e-12
	// The cursor slice lives on the stack for any realistic component
	// count (a node sums CPU + DDR + a handful of GPUs), keeping the
	// steady-state call allocation-free.
	var cbuf [8]sumCursor
	cursors := cbuf[:0]
	if len(traces) > len(cbuf) {
		cursors = make([]sumCursor, 0, len(traces))
	}
	longest, total := 0, 0
	var prev float64
	for _, tr := range traces {
		// Empty traces contribute no breakpoints and no power (their
		// duration is 0); dropping them here preserves the argument
		// order of the remaining traces, and with it the power
		// summation order.
		if len(tr.segs) == 0 {
			continue
		}
		// The first breakpoint is the smallest first boundary.
		if start := tr.segs[0].Start; len(cursors) == 0 || start < prev {
			prev = start
		}
		cursors = append(cursors, sumCursor{segs: tr.segs, dur: tr.Duration()})
		longest = max(longest, len(tr.segs))
		total += len(tr.segs)
	}
	dst.segs = dst.segs[:0]
	if len(cursors) == 0 {
		return dst
	}
	if cap(dst.segs) <= longest {
		dst.segs = make([]Segment, 0, longest+1)
	}
	origin := prev
	for {
		// Skip each cursor past the boundaries within eps of the last
		// kept breakpoint (a tolerance absorbing fp noise from repeated
		// accumulation of segment durations), then pick the smallest
		// boundary left. k is small (one cursor per component trace),
		// so a linear scan beats a heap.
		best := -1
		var bv float64
		for i := range cursors {
			c := &cursors[i]
			n := 2 * len(c.segs)
			for c.bi < n && c.boundary()-prev <= eps {
				c.bi++
			}
			if c.bi == n {
				continue
			}
			if v := c.boundary(); best < 0 || v < bv {
				best, bv = i, v
			}
		}
		if best < 0 {
			break
		}
		mid := (prev + bv) / 2
		var p float64
		for i := range cursors {
			c := &cursors[i]
			for c.si < len(c.segs) && c.segs[c.si].End() <= mid {
				c.si++
			}
			if mid >= 0 && mid < c.dur {
				if c.si < len(c.segs) {
					p += c.segs[c.si].Power
				} else {
					p += c.segs[len(c.segs)-1].Power
				}
			}
		}
		if len(dst.segs) == cap(dst.segs) {
			// Kept intervals are at most the Σ(n+1) distinct
			// breakpoints less one, plus the origin lead-in.
			dst.segs = slices.Grow(dst.segs, total+len(cursors)-len(dst.segs))
		}
		dst.Append(bv-prev, p)
		prev = bv
	}
	// Normalize origin: Sum assumes all traces start at 0; if the
	// first breakpoint is positive, lead with zero power from t=0. An
	// all-deduplicated merge (no kept intervals) stays empty. Shift
	// re-appends every segment after the lead-in, as the reference
	// does: a lead-in appended before the first interval instead would
	// add a merged zero-power run onto it one interval at a time and
	// round differently. Only offset-origin inputs, which the engine
	// never records, take this path (and allocate).
	if origin > eps && len(dst.segs) > 0 {
		*dst = *dst.Shift(origin)
	}
	countSumSegments(dst.Len())
	return dst
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
	cur := sort.Search(len(t.segs), func(j int) bool { return t.segs[j].End() > a0 })
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
	covLo := math.Max(a, t.segs[0].Start)
	covHi := math.Min(b, t.Duration())
	if covHi <= covLo {
		return 0
	}
	for *cur < len(t.segs) && t.segs[*cur].End() <= a {
		*cur++
	}
	var e float64
	for j := *cur; j < len(t.segs) && t.segs[j].Start < b; j++ {
		lo := math.Max(a, t.segs[j].Start)
		hi := math.Min(b, t.segs[j].End())
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
// walk instead of O(log n) per window.
//
// A cursor does not own the trace. When the underlying trace is a
// rebuilt derived trace (a node's memoized TotalTrace is recomputed
// after every Record), call Attach with the fresh pointer: as long as
// the new trace extends the old one in time, the saved segment index
// remains a valid starting point because the walk only ever advances
// past segments that end at or before the next window start.
type Cursor struct {
	tr  *Trace
	seg int
}

// NewCursor returns a cursor positioned at the start of tr.
func NewCursor(tr *Trace) *Cursor { return &Cursor{tr: tr} }

// Attach repoints the cursor at a trace that extends the previous one
// (same history, possibly more appended). A shorter trace — which
// violates the contract — degrades to a rescan from the start rather
// than an out-of-range read.
func (c *Cursor) Attach(tr *Trace) {
	if c.seg > len(tr.segs) {
		c.seg = 0
	}
	c.tr = tr
}

// MeanBetween returns the trace's average power over [a, b], counting
// only the covered portion (semantics of Trace.MeanBetween), resuming
// from the cursor's position. Window starts must not decrease across
// calls.
func (c *Cursor) MeanBetween(a, b float64) float64 {
	return c.tr.meanBetweenFrom(&c.seg, a, b)
}
