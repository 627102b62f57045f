package main

import (
	"math"
	"sort"
	"testing"

	"vasppower/internal/hw/gpu"
	"vasppower/internal/hw/platform"
)

func close6(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestFitRecoversDefaultTable is the -fit-tables acceptance check: the
// black-box fitter, probing only durations and powers, must recover a
// table behaviorally equivalent to the calibrated perlmutter-a100
// default across the axes space.
func TestFitRecoversDefaultTable(t *testing.T) {
	p := platform.Default()
	fitted, err := fitTables(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := fitted.Validate(); err != nil {
		t.Fatal(err)
	}

	truth := p.Efficiency
	if !close6(fitted.OccFloor, truth.OccFloor) {
		t.Fatalf("occupancy floor %v, want %v", fitted.OccFloor, truth.OccFloor)
	}
	if !close6(fitted.LaunchLatency, truth.LaunchLatency) {
		t.Fatalf("launch latency %v, want %v", fitted.LaunchLatency, truth.LaunchLatency)
	}
	if !close6(fitted.Entropy.Sensitivity, truth.Entropy.Sensitivity) ||
		!close6(fitted.Entropy.Ref, truth.Entropy.Ref) {
		t.Fatalf("entropy model %+v, want %+v", fitted.Entropy, truth.Entropy)
	}

	classes := make([]gpu.KernelClass, 0, len(truth.Classes))
	for c := range truth.Classes {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	if len(fitted.Classes) != len(classes) {
		t.Fatalf("fitted %d classes, want %d", len(fitted.Classes), len(classes))
	}

	// Behavioral sweep: every class, a grid of axes magnitudes, with
	// latency and entropy in play.
	vals := []float64{10, 1e3, 1e5, 1e8, 1e12}
	for _, c := range classes {
		for _, a0 := range vals {
			for _, a1 := range vals {
				for _, a2 := range vals {
					k := gpu.Kernel{
						Class: c,
						Flops: 1e12, Bytes: 1e11,
						Axes:     [3]float64{a0, a1, a2},
						Launches: 17, LatencyScale: 12, Entropy: 0.4,
					}
					want, err := truth.Resolve(k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := fitted.Resolve(k)
					if err != nil {
						t.Fatalf("%s: fitted table cannot resolve: %v", c, err)
					}
					if !close6(got.ComputeOcc, want.ComputeOcc) ||
						!close6(got.MemOcc, want.MemOcc) ||
						!close6(got.SMActivity, want.SMActivity) ||
						!close6(got.Latency, want.Latency) ||
						!close6(got.PowerScale, want.PowerScale) {
						t.Fatalf("%s axes %v: fitted %+v, want %+v", c, k.Axes, got, want)
					}
				}
			}
		}
	}
}
