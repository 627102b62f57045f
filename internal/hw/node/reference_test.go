package node

import (
	"slices"
	"sort"

	"vasppower/internal/hw/gpu"
	"vasppower/internal/timeseries"
)

// Test-only oracles for the sums a node records: each sum is rebuilt
// by merging per-device traces after the fact, an independent route to
// the values Record adds up step by step.

// refSum is the pointwise sum of the given traces, each read as zero
// beyond its own end: at every segment end any input holds, the powers
// that hold up to it are added in argument order, starting from 0.
func refSum(traces ...*timeseries.Trace) *timeseries.Trace {
	var points []float64
	for _, tr := range traces {
		for _, s := range tr.Segments() {
			points = append(points, s.End)
		}
	}
	sort.Float64s(points)
	points = slices.Compact(points)
	out := &timeseries.Trace{}
	for _, b := range points {
		var p float64
		for _, tr := range traces {
			segs := tr.Segments()
			if i := sort.Search(len(segs), func(i int) bool { return segs[i].End >= b }); i < len(segs) {
				p += segs[i].Power
			}
		}
		out.Append(b, p)
	}
	return out
}

// refMap returns tr with every power replaced by f(power).
func refMap(tr *timeseries.Trace, f func(p float64) float64) *timeseries.Trace {
	out := &timeseries.Trace{}
	for _, s := range tr.Segments() {
		out.Append(s.End, f(s.Power))
	}
	return out
}

// refScopes derives the NVML gpu and memory scopes from per-device
// board and HBM traces: the memory scope is Σ HBM_i; the gpu scope is
// Σ max(0, board_i·(1−gpu.ModuleVRFrac) − HBM_i), each device's
// difference taken by merging its scaled board trace with its negated
// HBM trace, clamped at zero, then summed across devices.
func refScopes(boards, hbms []*timeseries.Trace) (gpuScope, memScope *timeseries.Trace) {
	cores := make([]*timeseries.Trace, len(boards))
	for i := range boards {
		scaled := refMap(boards[i], func(p float64) float64 { return p * (1 - gpu.ModuleVRFrac) })
		negated := refMap(hbms[i], func(p float64) float64 { return -p })
		cores[i] = refMap(refSum(scaled, negated), func(p float64) float64 {
			if p < 0 {
				return 0
			}
			return p
		})
	}
	return refSum(cores...), refSum(hbms...)
}
