package gpu

import "math"

// CapSolver is the cap-independent half of running one kernel on a
// device spec: every constant of the timing and power model that
// depends on neither the clock nor the individual device —
// resolved-profile products, the memory-side duration, and for
// memory-bound kernels the whole duration — hoisted out of the cap
// solver's bisection loop. Solve then re-runs only the clock decision
// for one device under its current power and clock limits.
//
// Devices built from one Spec differ only by two variability scalars
// (static and dynamic power scale), so one CapSolver serves every
// device of a job: Solve folds the device's scalars in at the start
// and bisects on the hoisted arithmetic. Every hoisted value is a
// contiguous subtree of the model expression, evaluated in the same
// order on the same inputs, so results are bit-identical to the
// unhoisted step-by-step model (pinned by the differential tests in
// capsolver_test.go).
//
// The big win is the memory-bound case — common across the VASP
// methods' FFT-heavy schedules — where the kernel duration does not
// depend on the clock at all and the bisection predicate collapses to
// a handful of flops.
type CapSolver struct {
	flops, bytes float64

	// Hoisted subtrees of the duration model.
	latency float64
	fcDen   float64 // ComputeOcc·PeakFlops (tc = flops/(fcDen·c))
	tm      float64 // memory-side duration, clock-independent

	// Hoisted subtrees of the power model.
	cs         float64 // CompPowerFull·smActivity
	powerScale float64 // the profile's operand-entropy factor (0 = none)

	// memBound: the kernel is memory-bound at every clock the device
	// can run (tc(MinClockFrac) ≤ tm, and tc only shrinks as the clock
	// rises), so duration, byte rate, and the SM duty cycle are all
	// clock-independent and fold into constants.
	memBound bool
	tConst   float64 // latency + tm
	csActive float64 // cs·active at the constant duration
	bwFrac   float64 // byteRate/PeakMemBW at the constant duration
	memTerm  float64 // MemPowerFull·bwFrac
}

// NewCapSolver hoists the clock- and device-independent constants of
// running k, resolved to profile p, on devices of the given spec. The
// profile must be the spec's efficiency table's Resolve(k) result, and
// every device later passed to Solve must carry this spec.
func NewCapSolver(sp Spec, k Kernel, p ExecProfile) CapSolver {
	s := CapSolver{
		flops:      k.Flops,
		bytes:      k.Bytes,
		latency:    p.Latency,
		cs:         sp.CompPowerFull * smActivity(p),
		powerScale: p.PowerScale,
	}
	if k.Flops > 0 {
		s.fcDen = p.ComputeOcc * sp.PeakFlops
	}
	if k.Bytes > 0 {
		s.tm = k.Bytes / (p.MemOcc * sp.PeakMemBW)
	}
	// Memory-bound at the lowest clock ⇒ memory-bound everywhere: the
	// compute-side duration only shrinks as the clock rises, so
	// math.Max picks tm at every clock the bisection can visit.
	tcMax := 0.0
	if k.Flops > 0 {
		tcMax = k.Flops / (s.fcDen * sp.MinClockFrac)
	}
	if tcMax <= s.tm {
		s.memBound = true
		t := s.latency + math.Max(tcMax, s.tm) // = latency + tm, Max kept for the tc == tm tie
		s.tConst = t
		if t > 0 {
			byteRate := k.Bytes / t
			active := 1.0
			if p.Latency > 0 {
				active = (t - p.Latency) / t
				if active < 0 {
					active = 0
				}
			}
			s.csActive = s.cs * active
			s.bwFrac = byteRate / sp.PeakMemBW
			s.memTerm = sp.MemPowerFull * s.bwFrac
		}
	}
	return s
}

// smActivity resolves the profile's SM busyness.
func smActivity(p ExecProfile) float64 {
	if p.SMActivity > 0 {
		return p.SMActivity
	}
	return p.ComputeOcc
}

// deviceTerms are the per-device factors of the power model — the
// static base (idle + resident adder) and the dynamic efficiency, both
// scaled by the device's variability — plus the spec constants the
// bisection reads, gathered once per Solve.
type deviceTerms struct {
	base    float64 // IdleWatts·idleScale + ActiveBase·idleScale
	eff     float64 // effScale (· PowerScale)
	idleP   float64 // power at a zero-length kernel
	hbmIdle float64 // HBM-domain share of idle
	gamma   float64 // Gamma
	gamma3  float64 // 1−Gamma
	memPF   float64 // MemPowerFull
	peakBW  float64 // PeakMemBW
}

func (s *CapSolver) terms(g *GPU) deviceTerms {
	sp := &g.Spec
	d := deviceTerms{
		base:    sp.IdleWatts*g.idleScale + sp.ActiveBase*g.idleScale,
		eff:     g.effScale,
		idleP:   g.IdlePower(),
		hbmIdle: g.HBMIdlePower(),
		gamma:   sp.Gamma,
		gamma3:  1 - sp.Gamma,
		memPF:   sp.MemPowerFull,
		peakBW:  sp.PeakMemBW,
	}
	if s.powerScale != 0 {
		d.eff *= s.powerScale
	}
	return d
}

// timeAt returns the kernel duration at clock fraction c. Memory
// bandwidth is clock-independent: the power cap governs SM clocks
// only, as on real A100s.
func (s *CapSolver) timeAt(c float64) float64 {
	if s.memBound {
		return s.tConst
	}
	var tc float64
	if s.flops > 0 {
		tc = s.flops / (s.fcDen * c)
	}
	return s.latency + math.Max(tc, s.tm)
}

// power returns sustained board power at clock c.
func (s *CapSolver) power(d *deviceTerms, c float64) float64 {
	// Dynamic SM power ∝ V²f ≈ γ·c + (1−γ)·c³.
	if s.memBound {
		if s.tConst <= 0 {
			return d.idleP
		}
		cf := d.gamma*c + d.gamma3*c*c*c
		return d.base + d.eff*(s.csActive*cf+s.memTerm)
	}
	t := s.timeAt(c)
	if t <= 0 {
		return d.idleP
	}
	byteRate := s.bytes / t
	cf := d.gamma*c + d.gamma3*c*c*c
	// During the fixed-latency portion (launch gaps, serial chains)
	// the SMs are quiet: duty-cycle the SM term.
	active := 1.0
	if s.latency > 0 && t > 0 {
		active = (t - s.latency) / t
		if active < 0 {
			active = 0
		}
	}
	return d.base + d.eff*(s.cs*active*cf+
		d.memPF*(byteRate/d.peakBW))
}

// memPower returns the HBM-domain share of power(c): the HBM idle
// share plus the dynamic bandwidth term. Both terms also appear inside
// power, so memPower ≤ power at every clock.
func (s *CapSolver) memPower(d *deviceTerms, c float64) float64 {
	t := s.timeAt(c)
	if t <= 0 {
		return d.hbmIdle
	}
	if s.memBound {
		return d.hbmIdle + d.eff*d.memPF*s.bwFrac
	}
	byteRate := s.bytes / t
	return d.hbmIdle + d.eff*d.memPF*(byteRate/d.peakBW)
}

// Solve runs the cap solver for device g under its current power and
// clock limits: the highest clock whose power fits the effective cap,
// found by 48-step bisection. If even the minimum clock exceeds the
// cap, the kernel runs at minimum clock and the returned power
// overshoots the cap (the 100 W floor behavior). g must carry the
// spec the solver was built for.
func (s *CapSolver) Solve(g *GPU) Execution {
	d := s.terms(g)
	cap := g.effectiveCap()
	cMin := g.Spec.MinClockFrac
	cMax := g.clockLimit // DVFS ceiling (1 when unlocked)
	if pw := s.power(&d, cMax); pw <= cap {
		return Execution{Duration: s.timeAt(cMax), Power: pw,
			MemPower: s.memPower(&d, cMax), ClockFrac: cMax, Capped: cMax < 1}
	}
	if pw := s.power(&d, cMin); pw > cap {
		// Cap unachievable: run at the floor, overshooting.
		return Execution{Duration: s.timeAt(cMin), Power: pw,
			MemPower: s.memPower(&d, cMin), ClockFrac: cMin, Capped: true}
	}
	lo, hi := cMin, cMax
	for i := 0; i < 48; i++ {
		mid := (lo + hi) / 2
		if s.power(&d, mid) <= cap {
			lo = mid
		} else {
			hi = mid
		}
	}
	return Execution{Duration: s.timeAt(lo), Power: s.power(&d, lo),
		MemPower: s.memPower(&d, lo), ClockFrac: lo, Capped: true}
}
