package timeseries

import (
	"math"
	"slices"
	"sort"
)

// This file preserves the pre-optimization implementations of the
// trace hot path as test-only reference functions. They are the
// ground truth the differential tests pin the linear-time
// implementations against: new and old must agree bit for bit — the
// same floating-point operations in the same order — because the
// byte-identical -quick golden output survives the rewrite only if
// every intermediate float does.
//
// Complexity of the reference path, for B total segments across k
// traces of up to n segments each, and m samples:
//
//   - sumReference: O(B log B) sort + O(B·k·log n) per-interval
//     binary searches;
//   - sampleReference: O(n·m) — every window rescans every segment;
//   - energyBetweenReference: O(n) per window.

// sumReference is the pointwise sum of the given traces, each read as
// zero beyond its own end: collect every segment end, sort, drop exact
// duplicates, then binary-search every input trace once per output
// interval for the segment that covers it (the first one ending at or
// after the interval's end), adding the powers in argument order.
// Boundaries are compared with ==, so traces recorded on one clock
// share them bit for bit. It is the oracle for the sums a node records
// (the node sensor and the GPU board sum).
func sumReference(traces ...*Trace) *Trace {
	var points []float64
	for _, tr := range traces {
		for _, s := range tr.segs {
			points = append(points, s.End)
		}
	}
	sort.Float64s(points)
	points = slices.Compact(points)
	out := &Trace{}
	for _, b := range points {
		var p float64
		for _, tr := range traces {
			if b <= tr.Duration() {
				i := sort.Search(len(tr.segs), func(i int) bool { return tr.segs[i].End >= b })
				p += tr.segs[i].Power
			}
		}
		out.Append(b, p)
	}
	return out
}

// energyBetweenReference is the original EnergyBetween, scanning every
// segment of the trace for each window.
func (t *Trace) energyBetweenReference(a, b float64) float64 {
	if b <= a || len(t.segs) == 0 {
		return 0
	}
	var e float64
	for i, s := range t.segs {
		lo := math.Max(a, t.start(i))
		hi := math.Min(b, s.End)
		if hi > lo {
			e += s.Power * (hi - lo)
		}
	}
	return e
}

// meanBetweenReference is the original MeanBetween on top of the
// full-scan energy integral.
func (t *Trace) meanBetweenReference(a, b float64) float64 {
	if b <= a || len(t.segs) == 0 {
		return 0
	}
	covLo := math.Max(a, 0)
	covHi := math.Min(b, t.Duration())
	if covHi <= covLo {
		return 0
	}
	return t.energyBetweenReference(a, b) / (covHi - covLo)
}

// sampleReference is the original Sample: one full MeanBetween scan
// per window.
func (t *Trace) sampleReference(interval float64) Series {
	if interval <= 0 {
		panic("timeseries: non-positive sampling interval")
	}
	dur := t.Duration()
	n := int(math.Ceil(dur/interval - 1e-9))
	s := Series{
		Times:  make([]float64, 0, n),
		Values: make([]float64, 0, n),
	}
	for i := 0; i < n; i++ {
		a := float64(i) * interval
		b := math.Min(a+interval, dur)
		s.Times = append(s.Times, b)
		s.Values = append(s.Values, t.meanBetweenReference(a, b))
	}
	return s
}
