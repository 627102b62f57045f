package main

import (
	"fmt"
	"math"
	"sort"

	"vasppower/internal/hw/gpu"
	"vasppower/internal/hw/platform"
)

// Black-box efficiency-table fitting (-fit-tables). The device is
// treated as the measurement apparatus: the fitter only calls
// UncappedDuration and UncappedPower on probe kernels — exactly what a
// calibration campaign can observe on real hardware — and inverts the
// roofline and power models to recover every table parameter:
//
//   - response caps from saturated probes (all axes huge),
//   - the occupancy floor from degenerate probes (an active axis tiny),
//   - per-axis half-saturation points from the two-probe ratio
//     r = sat(a1,h)/sat(a2,h)  =>  h = a1·a2·(1−r)/(r·a2 − a1),
//     sampled in the mid-band (15–85% of cap) where the inversion is
//     well conditioned and clear of both the floor and saturation,
//   - SM activity from power probes at full clock (duty 1, no memory
//     traffic), detecting the derive-from-compute convention by
//     comparing against compute occupancy across probe configurations,
//   - launch latency and per-class factors from the duration slope in
//     the launch count,
//   - the entropy response from dynamic-power ratios at e = 0.25, 0.75.

const (
	probeHuge  = 1e30 // saturates every axis (sat rounds to exactly 1)
	probeTiny  = 1e-30
	probeFlops = 1e15
	probeBytes = 1e14
)

type fitter struct {
	g  *gpu.GPU
	sp gpu.Spec
}

// fitTables recovers the platform's efficiency table from black-box
// probes of a nominal (no-variability) device.
func fitTables(p platform.Platform) (*gpu.EfficiencyModel, error) {
	if p.Efficiency == nil {
		return nil, fmt.Errorf("platform %s carries no efficiency table to refit", p.Name)
	}
	f := &fitter{g: gpu.New(p.GPU, p.Efficiency, 0, nil, gpu.Variability{}), sp: p.GPU}
	classes := make([]gpu.KernelClass, 0, len(p.Efficiency.Classes))
	for c := range p.Efficiency.Classes {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })

	m := &gpu.EfficiencyModel{
		Name:    p.Name + "-fit",
		Classes: make(map[gpu.KernelClass]gpu.ClassEfficiency, len(classes)),
	}

	// Launch-latency slopes: λ_c = LaunchLatency · factor_c. The base
	// latency is the smallest slope (factor 1); factors are ratios.
	lambdas := make(map[gpu.KernelClass]float64, len(classes))
	minLambda := math.Inf(1)
	for _, c := range classes {
		l := f.launchSlope(c)
		lambdas[c] = l
		minLambda = math.Min(minLambda, l)
	}
	if minLambda > 0 && !math.IsInf(minLambda, 1) {
		m.LaunchLatency = minLambda
	}

	for _, c := range classes {
		ce := gpu.ClassEfficiency{
			Compute: fitResponse(f.compOcc(c)),
			Memory:  fitResponse(f.memOcc(c)),
		}
		smaF, compF := f.smAct(c), f.compOcc(c)
		derive := true
		for _, cfg := range probeConfigs() {
			if math.Abs(smaF(cfg)-compF(cfg)) > 1e-9 {
				derive = false
				break
			}
		}
		if !derive {
			ce.SMActivity = fitResponse(smaF)
		}
		if m.LaunchLatency > 0 {
			factor := lambdas[c] / m.LaunchLatency
			if math.Abs(factor-1) > 1e-6 {
				ce.LaunchFactor = factor
			}
		}
		m.Classes[c] = ce
	}

	// The occupancy floor is what a degenerate compute probe lands on.
	floorDone := false
	for _, c := range classes {
		for i, h := range m.Classes[c].Compute.Half {
			if h > 0 {
				axes := [3]float64{probeHuge, probeHuge, probeHuge}
				axes[i] = probeTiny
				m.OccFloor = f.compOcc(c)(axes)
				floorDone = true
				break
			}
		}
		if floorDone {
			break
		}
	}
	if !floorDone {
		return nil, fmt.Errorf("fit-tables: no saturating compute response to probe the occupancy floor")
	}

	m.Entropy = f.fitEntropy(classes[0])

	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("fit-tables: fitted table invalid: %w", err)
	}
	return m, nil
}

// compOcc measures achieved compute occupancy at the given axes from
// the duration of a flops-only probe: occ = F / (d · PeakFlops).
func (f *fitter) compOcc(c gpu.KernelClass) func([3]float64) float64 {
	return func(axes [3]float64) float64 {
		k := gpu.Kernel{Class: c, Flops: probeFlops, Axes: axes}
		return probeFlops / (f.g.UncappedDuration(k) * f.sp.PeakFlops)
	}
}

// memOcc measures achieved memory occupancy from a bytes-only probe:
// occ = B / (d · PeakMemBW).
func (f *fitter) memOcc(c gpu.KernelClass) func([3]float64) float64 {
	return func(axes [3]float64) float64 {
		k := gpu.Kernel{Class: c, Bytes: probeBytes, Axes: axes}
		return probeBytes / (f.g.UncappedDuration(k) * f.sp.PeakMemBW)
	}
}

// smAct measures SM activity from sustained power at full clock: with
// no memory traffic and no launch latency, P = Idle + Base +
// CompPowerFull · sma · clockFactor(1).
func (f *fitter) smAct(c gpu.KernelClass) func([3]float64) float64 {
	cf := f.sp.Gamma + (1 - f.sp.Gamma)
	return func(axes [3]float64) float64 {
		k := gpu.Kernel{Class: c, Flops: probeFlops, Axes: axes}
		p := f.g.UncappedPower(k)
		return (p - f.sp.IdleWatts - f.sp.ActiveBase) / (f.sp.CompPowerFull * cf)
	}
}

// launchSlope measures d(duration)/d(launches) at saturated axes.
func (f *fitter) launchSlope(c gpu.KernelClass) float64 {
	k := gpu.Kernel{Class: c, Flops: probeFlops,
		Axes: [3]float64{probeHuge, probeHuge, probeHuge}}
	d0 := f.g.UncappedDuration(k)
	k.Launches = 1e6
	d1 := f.g.UncappedDuration(k)
	return (d1 - d0) / 1e6
}

// fitEntropy recovers the entropy→dynamic-power response from two
// probes: scale(e) = dyn(e)/dyn(0) = 1 + S·(e − Ref).
func (f *fitter) fitEntropy(c gpu.KernelClass) gpu.EntropyModel {
	dyn := func(e float64) float64 {
		k := gpu.Kernel{Class: c, Flops: probeFlops,
			Axes: [3]float64{probeHuge, probeHuge, probeHuge}, Entropy: e}
		return f.g.UncappedPower(k) - f.sp.IdleWatts - f.sp.ActiveBase
	}
	d0 := dyn(0)
	if d0 <= 0 {
		return gpu.EntropyModel{}
	}
	s1, s2 := dyn(0.25)/d0, dyn(0.75)/d0
	sens := (s2 - s1) / 0.5
	if math.Abs(sens) < 1e-9 {
		return gpu.EntropyModel{}
	}
	return gpu.EntropyModel{Ref: 0.25 + (1-s1)/sens, Sensitivity: sens}
}

// fitResponse recovers one saturating response — cap plus per-axis
// half-saturation points — from black-box probes of v(axes).
func fitResponse(v func([3]float64) float64) gpu.Response {
	allHuge := [3]float64{probeHuge, probeHuge, probeHuge}
	cap := v(allHuge)
	var half [3]float64
	for i := 0; i < 3; i++ {
		axes := allHuge
		axes[i] = probeTiny
		vFloor := v(axes) // plateau (occupancy floor / zero) when active
		if math.Abs(vFloor-cap) <= 1e-9*cap {
			continue // axis does not modulate this response
		}
		// Mid-band acceptance: clear of the floor plateau below and of
		// saturation above, where the two-probe inversion is stable.
		lo := math.Max(0.15*cap, vFloor*1.01)
		hi := 0.85 * cap
		var a1, v1 float64
		for a := 1e-2; a <= 1e16; a *= 10 {
			axes[i] = a
			if val := v(axes); val > lo && val < hi {
				a1, v1 = a, val
				break
			}
		}
		if a1 == 0 {
			continue // half-saturation below probe resolution
		}
		a2 := a1 * 10
		axes[i] = a2
		v2 := v(axes)
		r := v1 / v2
		h := a1 * a2 * (1 - r) / (r*a2 - a1)
		if h > 0 && !math.IsNaN(h) && !math.IsInf(h, 0) {
			half[i] = h
		}
	}
	return gpu.Response{Cap: cap, Half: half}
}

// probeConfigs spans the axes space for the derive-from-compute
// detection: the saturated point plus three magnitudes per axis.
func probeConfigs() [][3]float64 {
	cfgs := [][3]float64{{probeHuge, probeHuge, probeHuge}}
	for i := 0; i < 3; i++ {
		for _, a := range []float64{1e2, 1e6, 1e10} {
			c := [3]float64{probeHuge, probeHuge, probeHuge}
			c[i] = a
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}
