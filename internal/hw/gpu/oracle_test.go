package gpu

import "math"

// The unhoisted cap solver: the device model evaluated term by term at
// every bisection step, exactly as the engine's first version ran it.
// It is the oracle CapSolver is pinned against (capsolver_test.go) and
// the reference the physics tests in this package drive directly.

// timeAt returns the kernel duration at clock fraction c under the
// resolved profile. Memory bandwidth is clock-independent: the power
// cap governs SM clocks only, as on real A100s.
func (g *GPU) timeAt(k Kernel, p ExecProfile, c float64) float64 {
	t := p.Latency
	var tc, tm float64
	if k.Flops > 0 {
		tc = k.Flops / (p.ComputeOcc * g.Spec.PeakFlops * c)
	}
	if k.Bytes > 0 {
		tm = k.Bytes / (p.MemOcc * g.Spec.PeakMemBW)
	}
	return t + math.Max(tc, tm)
}

// powerAt returns sustained board power while running k at clock c
// under the resolved profile.
func (g *GPU) powerAt(k Kernel, p ExecProfile, c float64) float64 {
	t := g.timeAt(k, p, c)
	if t <= 0 {
		return g.IdlePower()
	}
	byteRate := k.Bytes / t
	sp := g.Spec
	// Dynamic SM power ∝ V²f ≈ γ·c + (1−γ)·c³.
	clockFactor := sp.Gamma*c + (1-sp.Gamma)*c*c*c
	// During the fixed-latency portion (launch gaps, serial chains)
	// the SMs are quiet: duty-cycle the SM term.
	active := 1.0
	if p.Latency > 0 && t > 0 {
		active = (t - p.Latency) / t
		if active < 0 {
			active = 0
		}
	}
	// The operand-entropy factor scales dynamic power only: static
	// draw does not depend on what the wires carry.
	eff := g.effScale
	if p.PowerScale != 0 {
		eff *= p.PowerScale
	}
	pw := sp.IdleWatts*g.idleScale + sp.ActiveBase*g.idleScale +
		eff*(sp.CompPowerFull*smActivity(p)*active*clockFactor+
			sp.MemPowerFull*(byteRate/sp.PeakMemBW))
	return pw
}

// memPowerAt returns the memory-domain share of powerAt(k, p, c): the
// HBM idle share plus the dynamic bandwidth term. Both terms also
// appear inside powerAt, so memPowerAt(…) ≤ powerAt(…) at every clock
// (the rest of the board — SMs, base, the non-HBM idle share — is
// non-negative), which is what keeps the domain decomposition
// consistent with the board total.
func (g *GPU) memPowerAt(k Kernel, p ExecProfile, c float64) float64 {
	t := g.timeAt(k, p, c)
	if t <= 0 {
		return g.HBMIdlePower()
	}
	eff := g.effScale
	if p.PowerScale != 0 {
		eff *= p.PowerScale
	}
	byteRate := k.Bytes / t
	return g.HBMIdlePower() + eff*g.Spec.MemPowerFull*(byteRate/g.Spec.PeakMemBW)
}

// Run executes the kernel under the current power limit and returns
// the resulting duration and sustained power. The descriptor is first
// resolved through the device's efficiency table; the cap solver then
// bisects for the highest clock whose power fits the cap. If even the
// minimum clock exceeds the cap, the kernel runs at minimum clock and
// the returned power overshoots the cap (the 100 W floor behavior).
func (g *GPU) Run(k Kernel) Execution {
	if err := k.Validate(); err != nil {
		panic(err)
	}
	p, err := g.model.Resolve(k)
	if err != nil {
		panic(err)
	}
	return g.runResolved(k, p)
}

func (g *GPU) runResolved(k Kernel, p ExecProfile) Execution {
	cap := g.effectiveCap()
	cMin := g.Spec.MinClockFrac
	cMax := g.clockLimit // DVFS ceiling (1 when unlocked)
	if pw := g.powerAt(k, p, cMax); pw <= cap {
		return Execution{Duration: g.timeAt(k, p, cMax), Power: pw,
			MemPower: g.memPowerAt(k, p, cMax), ClockFrac: cMax, Capped: cMax < 1}
	}
	if pw := g.powerAt(k, p, cMin); pw > cap {
		// Cap unachievable: run at the floor, overshooting.
		return Execution{Duration: g.timeAt(k, p, cMin), Power: pw,
			MemPower: g.memPowerAt(k, p, cMin), ClockFrac: cMin, Capped: true}
	}
	lo, hi := cMin, cMax
	for i := 0; i < 48; i++ {
		mid := (lo + hi) / 2
		if g.powerAt(k, p, mid) <= cap {
			lo = mid
		} else {
			hi = mid
		}
	}
	return Execution{Duration: g.timeAt(k, p, lo), Power: g.powerAt(k, p, lo),
		MemPower: g.memPowerAt(k, p, lo), ClockFrac: lo, Capped: true}
}
