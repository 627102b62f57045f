package core

import "vasppower/internal/workloads"

// Arena is one worker's reusable measurement storage: the sweep
// storage of internal/workloads (schedule steps, per-node trace banks)
// and the sort scratch of each profiled series' summary. MeasureIn and
// NewSweepContextIn borrow it for one measurement or sweep at a time
// and give it back once the profile is built; a profile never points
// into it, since every series is sampled into its own slices. The zero
// value is ready to use; a nil *Arena allocates per measurement.
type Arena struct {
	sweep  workloads.Arena
	sorted []float64
}

// sweepArena returns the sweep storage (nil for a nil arena).
func (a *Arena) sweepArena() *workloads.Arena {
	if a == nil {
		return nil
	}
	return &a.sweep
}

// sortScratch returns the summary sort scratch (nil for a nil arena).
func (a *Arena) sortScratch() *[]float64 {
	if a == nil {
		return nil
	}
	return &a.sorted
}
