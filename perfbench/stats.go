package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middles for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs (0 ≤ p ≤ 100) by linear
// interpolation between closest ranks, the same rule as numpy's
// default; 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method, ported from Python's statistics.quantiles(xs,
// n=4), which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	ld := len(xs)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// tail is the highest reported percentile of a latency sample: the
// highest percentile, capped at p99.9, p99 or p90 where the sample
// reaches them, that has at least ten samples beyond it. Between 20 and
// 100 samples that is p(100·(1−10/n)); a sample too small to support
// even the median reports its maximum.
type tail struct {
	Label string // "p99", "p90", "p61.5", ... or "max"
	Value float64
	N     int // samples in the distribution
}

func (t tail) String() string { return fmt.Sprintf("%s=%.4g (n=%d)", t.Label, t.Value, t.N) }

// supports reports whether n samples leave at least ten beyond the
// p-th percentile.
func supports(n int, p float64) bool { return float64(n)*(100-p)/100 >= 10-1e-9 }

// tailPercentile returns the percentile tailOf reports for n samples
// (never above want), or ok=false when n cannot support the median.
func tailPercentile(n int, want float64) (p float64, ok bool) {
	for _, p := range []float64{99.9, 99, 90} {
		if p <= want && supports(n, p) {
			return p, true
		}
	}
	if n < 20 {
		return 0, false
	}
	return math.Min(want, 100*(1-10/float64(n))), true
}

// tailOf picks the tail percentile of xs, never above want (e.g. 99 to
// never report past p99).
func tailOf(xs []float64, want float64) tail {
	if p, ok := tailPercentile(len(xs), want); ok {
		return tail{Label: fmt.Sprintf("p%.3g", p), Value: percentile(xs, p), N: len(xs)}
	}
	mx := 0.0
	for _, x := range xs {
		mx = math.Max(mx, x)
	}
	return tail{Label: "max", Value: mx, N: len(xs)}
}

// interval is a half-open [Start, End) stretch of time in seconds on
// one clock.
type interval struct{ Start, End float64 }

func (iv interval) dur() float64 { return math.Max(0, iv.End-iv.Start) }

// covered returns how much of win the intervals cover, counting time
// covered by several intervals once.
func covered(win interval, ivs []interval) float64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := math.Max(iv.Start, win.Start), math.Min(iv.End, win.End)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	total, curS, curE := 0.0, 0.0, math.Inf(-1)
	for _, iv := range clipped {
		if iv.Start > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = iv.Start, iv.End
			continue
		}
		curE = math.Max(curE, iv.End)
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of it its child spans
// cover.
func selfTime(span interval, children []interval) float64 {
	return span.dur() - covered(span, children)
}
