package experiments

import "fmt"

// Behaviour pins over the figure results: the experiments tests read
// these to check a run's shape; no binary needs them.

// HighModeStable reports whether the high power mode stayed within
// tol watts of the 0.1 s reference at every interval.
func (r Fig2Result) HighModeStable(tol float64) bool {
	if len(r.Points) == 0 {
		return false
	}
	ref := r.Points[0].HighMode
	for _, p := range r.Points {
		if p.HighMode == 0 || p.HighMode < ref-tol || p.HighMode > ref+tol {
			return false
		}
	}
	return true
}

// EnergyMonotone reports whether energy to solution increases with
// node count (the paper's observation).
func (r Fig8Result) EnergyMonotone() bool {
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].EnergyMJ <= r.Points[i-1].EnergyMJ {
			return false
		}
	}
	return len(r.Points) > 1
}

// SlowdownAt returns the fractional slowdown of a benchmark at a cap.
func (r CapStudyResult) SlowdownAt(bench string, capW float64) (float64, error) {
	cr, ok := r.Responses[bench]
	if !ok {
		return 0, fmt.Errorf("experiments: no cap response for %s", bench)
	}
	return cr.SlowdownAt(capW)
}

// MaxSpreadAt returns the max−min relative performance across node
// counts at the given cap (small = concurrency-independent response).
func (r Fig13Result) MaxSpreadAt(capW float64) float64 {
	idx := -1
	for i, c := range r.Caps {
		if c == capW {
			idx = i
		}
	}
	if idx < 0 {
		return 0
	}
	lo, hi := 1e18, -1e18
	for _, n := range r.Counts {
		rels, ok := r.RelPerf[n]
		if !ok || idx >= len(rels) {
			continue
		}
		v := rels[idx]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// CappingWins reports whether power capping met the target with less
// slowdown than DVFS on every row.
func (r ExtCResult) CappingWins() bool {
	if len(r.Rows) == 0 {
		return false
	}
	for _, row := range r.Rows {
		if row.CapRuntime > row.DVFSRuntime {
			return false
		}
	}
	return true
}

// Cell returns one benchmark's cell for a metric.
func (r ExtGResult) Cell(bench, metric string) (ExtGCell, bool) {
	for _, row := range r.Rows {
		if row.Bench != bench {
			continue
		}
		for _, c := range row.Cells {
			if c.Metric == metric {
				return c, true
			}
		}
	}
	return ExtGCell{}, false
}
