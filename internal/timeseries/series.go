package timeseries

import (
	"fmt"
	"math"
	"sort"
)

// Series is a sampled time series: parallel slices of timestamps
// (seconds) and values (watts). Timestamps are strictly increasing.
type Series struct {
	Times  []float64
	Values []float64
}

// Len returns the number of samples.
func (s Series) Len() int { return len(s.Values) }

// Validate checks the structural invariants of the series.
func (s Series) Validate() error {
	if len(s.Times) != len(s.Values) {
		return fmt.Errorf("timeseries: %d times but %d values", len(s.Times), len(s.Values))
	}
	for i := 1; i < len(s.Times); i++ {
		if s.Times[i] <= s.Times[i-1] {
			return fmt.Errorf("timeseries: non-increasing timestamps at index %d (%v then %v)",
				i, s.Times[i-1], s.Times[i])
		}
	}
	return nil
}

// Duration returns the time span covered by the samples (0 for fewer
// than two samples).
func (s Series) Duration() float64 {
	if len(s.Times) < 2 {
		return 0
	}
	return s.Times[len(s.Times)-1] - s.Times[0]
}

// Interval returns the median spacing between consecutive samples,
// which is robust to occasional drops (the paper's nominal 1 s LDMS
// data has an effective 2 s interval because of drops).
func (s Series) Interval() float64 {
	if len(s.Times) < 2 {
		return 0
	}
	gaps := make([]float64, 0, len(s.Times)-1)
	for i := 1; i < len(s.Times); i++ {
		gaps = append(gaps, s.Times[i]-s.Times[i-1])
	}
	sort.Float64s(gaps)
	return gaps[len(gaps)/2]
}

// MaxGap returns the largest spacing between consecutive samples.
func (s Series) MaxGap() float64 {
	var m float64
	for i := 1; i < len(s.Times); i++ {
		if g := s.Times[i] - s.Times[i-1]; g > m {
			m = g
		}
	}
	return m
}

// Min returns the minimum value (NaN for an empty series).
func (s Series) Min() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum value (NaN for an empty series).
func (s Series) Max() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean returns the arithmetic mean of the values (NaN for empty).
func (s Series) Mean() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Median returns the median value (NaN for empty).
func (s Series) Median() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	vs := append([]float64(nil), s.Values...)
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// Downsample averages consecutive samples into windows of the given
// interval (seconds), anchored at the first sample's window. This is
// the operation the paper applies to its 0.1 s data to study sampling
// granularity (Fig. 2): window averaging merges nearby power modes and
// widens the high-power mode's FWHM while leaving the mode location
// stable.
func (s Series) Downsample(interval float64) Series {
	if interval <= 0 {
		panic("timeseries: non-positive downsample interval")
	}
	if len(s.Times) == 0 {
		return Series{}
	}
	out := Series{}
	start := s.Times[0]
	var sum float64
	var count int
	windowEnd := start + interval
	flush := func() {
		if count > 0 {
			out.Times = append(out.Times, windowEnd)
			out.Values = append(out.Values, sum/float64(count))
		}
		sum, count = 0, 0
	}
	for i := range s.Times {
		// Half-open windows [windowEnd-interval, windowEnd): a sample
		// landing exactly on a boundary starts the next window.
		for s.Times[i] >= windowEnd-1e-9 {
			flush()
			windowEnd += interval
		}
		sum += s.Values[i]
		count++
	}
	flush()
	return out
}

// Slice returns the sub-series with times in [a, b], as a copy the
// caller may mutate (nil slices when no time falls in the window).
func (s Series) Slice(a, b float64) Series {
	n := 0
	for _, t := range s.Times {
		if t >= a && t <= b {
			n++
		}
	}
	if n == 0 {
		return Series{}
	}
	out := Series{Times: make([]float64, 0, n), Values: make([]float64, 0, n)}
	for i, t := range s.Times {
		if t >= a && t <= b {
			out.Times = append(out.Times, t)
			out.Values = append(out.Values, s.Values[i])
		}
	}
	return out
}

// ShiftTime returns a copy with dt added to every timestamp.
func (s Series) ShiftTime(dt float64) Series {
	out := Series{
		Times:  make([]float64, len(s.Times)),
		Values: append([]float64(nil), s.Values...),
	}
	for i, t := range s.Times {
		out.Times[i] = t + dt
	}
	return out
}

// Add returns the pointwise sum of two series sampled on the same
// timestamps. It returns an error if the grids differ.
func Add(a, b Series) (Series, error) {
	if len(a.Times) != len(b.Times) {
		return Series{}, fmt.Errorf("timeseries: grids differ in length (%d vs %d)", len(a.Times), len(b.Times))
	}
	out := Series{
		Times:  append([]float64(nil), a.Times...),
		Values: make([]float64, len(a.Values)),
	}
	for i := range a.Times {
		if math.Abs(a.Times[i]-b.Times[i]) > 1e-9 {
			return Series{}, fmt.Errorf("timeseries: grids differ at index %d (%v vs %v)", i, a.Times[i], b.Times[i])
		}
		out.Values[i] = a.Values[i] + b.Values[i]
	}
	return out, nil
}

// Energy estimates the energy under the sampled curve by trapezoidal
// integration, in joules. Requires at least two samples.
func (s Series) Energy() float64 {
	var e float64
	for i := 1; i < len(s.Times); i++ {
		dt := s.Times[i] - s.Times[i-1]
		e += dt * (s.Values[i] + s.Values[i-1]) / 2
	}
	return e
}

// Drop returns a copy of the series with samples removed wherever
// keep(i) reports false. Used by the LDMS drop model.
func (s Series) Drop(keep func(i int) bool) Series {
	out := Series{}
	for i := range s.Times {
		if keep(i) {
			out.Times = append(out.Times, s.Times[i])
			out.Values = append(out.Values, s.Values[i])
		}
	}
	return out
}
