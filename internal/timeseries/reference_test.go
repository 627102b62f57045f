package timeseries

import (
	"math"
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

// sumReference is the original Sum: collect every segment boundary,
// sort, deduplicate, then binary-search every input trace once per
// output interval.
func sumReference(traces ...*Trace) *Trace {
	// Collect all breakpoints.
	var points []float64
	for _, tr := range traces {
		for _, s := range tr.segs {
			points = append(points, s.Start, s.End())
		}
	}
	if len(points) == 0 {
		return &Trace{}
	}
	sort.Float64s(points)
	// Deduplicate (within a tiny tolerance to absorb fp noise from
	// repeated accumulation of segment durations).
	const eps = 1e-12
	uniq := points[:1]
	for _, p := range points[1:] {
		if p-uniq[len(uniq)-1] > eps {
			uniq = append(uniq, p)
		}
	}
	out := &Trace{}
	for i := 0; i+1 < len(uniq); i++ {
		a, b := uniq[i], uniq[i+1]
		mid := (a + b) / 2
		var p float64
		for _, tr := range traces {
			if mid >= 0 && mid < tr.Duration() {
				p += tr.PowerAt(mid)
			}
		}
		out.Append(b-a, p)
	}
	// Normalize origin: Sum assumes all traces start at 0; if the first
	// breakpoint is positive, prepend zero power from t=0.
	if len(out.segs) > 0 && uniq[0] > eps {
		shifted := &Trace{}
		shifted.Append(uniq[0], 0)
		for _, s := range out.segs {
			shifted.Append(s.Dur, s.Power)
		}
		return shifted
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
	for _, s := range t.segs {
		lo := math.Max(a, s.Start)
		hi := math.Min(b, s.End())
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
	covLo := math.Max(a, t.segs[0].Start)
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
