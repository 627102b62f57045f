// Package cpu models the host processor of a Perlmutter GPU node: one
// AMD EPYC 7763 "Milan" (64 cores, 280 W TDP). For this study the CPU
// matters in three regimes the paper distinguishes (§III-C):
//
//   - idle / near-idle while GPUs compute (VASP's GPU port leaves the
//     host mostly orchestrating — CPU+memory below 10% of node power),
//   - host-orchestration load (kernel launches, MPI progress),
//   - full compute phases, e.g. the exact-diagonalization step of
//     ACFDT/RPA that VASP 6.4.1 had not yet ported to GPUs, which
//     produces the flat CPU-bound valley in Si128_acfdtr's timeline.
package cpu

import (
	"fmt"
	"math"

	"vasppower/internal/rng"
)

// Spec holds the CPU model parameters.
type Spec struct {
	Name      string
	TDP       float64 // W (EPYC 7763: 280)
	IdleWatts float64 // package idle power
	Cores     int
	PeakFlops float64 // all-core FP64 peak, flop/s
}

// EPYC7763 returns the Milan spec used in Perlmutter GPU nodes.
func EPYC7763() Spec {
	return Spec{
		Name:      "EPYC-7763",
		TDP:       280,
		IdleWatts: 85,
		Cores:     64,
		PeakFlops: 3.58e12, // 64 cores × 2.45 GHz × 16 flop/cycle + boost margin
	}
}

// Variability holds the per-package manufacturing-spread parameters,
// carried by the platform and threaded in by the node layer.
type Variability struct {
	// IdleSigma is the relative spread of package idle power.
	IdleSigma float64
	// EffSigma is the relative spread of dynamic power.
	EffSigma float64
}

// DefaultVariability returns the spread used for the paper's fleet.
func DefaultVariability() Variability {
	return Variability{IdleSigma: 0.04, EffSigma: 0.02}
}

// CPU is one processor instance with manufacturing variability.
type CPU struct {
	Spec      Spec
	idleScale float64
	effScale  float64
}

// New creates a CPU with variability drawn from r using the given
// spread; pass nil for r for a nominal device.
func New(spec Spec, r *rng.Stream, v Variability) *CPU {
	c := &CPU{Spec: spec, idleScale: 1, effScale: 1}
	if r != nil {
		c.idleScale = clamp(r.Normal(1, v.IdleSigma), 0.88, 1.12)
		c.effScale = clamp(r.Normal(1, v.EffSigma), 0.94, 1.06)
	}
	return c
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// IdlePower returns the package idle draw.
func (c *CPU) IdlePower() float64 { return c.Spec.IdleWatts * c.idleScale }

// PowerAt returns the package power at a given utilization u ∈ [0,1]
// (fraction of all-core peak activity). The curve is mildly concave:
// the uncore and memory controllers power up quickly with any
// activity, after which power grows with load.
func (c *CPU) PowerAt(u float64) float64 {
	if u < 0 || u > 1 {
		panic(fmt.Sprintf("cpu: utilization %v out of [0,1]", u))
	}
	dynamic := (c.Spec.TDP - c.Spec.IdleWatts) * c.effScale
	// 35% of dynamic power arrives by u=0.1 (uncore wake-up), the rest
	// linearly.
	var f float64
	if u <= 0.1 {
		f = 0.35 * (u / 0.1)
	} else {
		f = 0.35 + 0.65*(u-0.1)/0.9
	}
	return c.Spec.IdleWatts*c.idleScale + dynamic*f
}

// HostOrchestrationPower returns the package power while the CPU is
// only driving GPUs (launch queues, MPI progress threads): one busy
// core per GPU plus OS noise, ≈ 12% utilization on a 64-core part.
func (c *CPU) HostOrchestrationPower() float64 { return c.PowerAt(0.12) }

// Task is a CPU-side computation (e.g. a ScaLAPACK eigensolve).
type Task struct {
	Flops float64 // total FP work
	// Efficiency is the achieved fraction of all-core peak (parallel
	// efficiency × vectorization efficiency), ∈ (0, 1].
	Efficiency float64
	// Utilization is the package activity level while the task runs
	// (drives power), ∈ (0, 1].
	Utilization float64
}

// Execution describes a completed CPU task.
type Execution struct {
	Duration float64
	Power    float64
}

// Run executes the task and returns its duration and sustained power.
func (c *CPU) Run(t Task) Execution {
	if t.Flops < 0 || t.Efficiency <= 0 || t.Efficiency > 1 ||
		t.Utilization <= 0 || t.Utilization > 1 {
		panic(fmt.Sprintf("cpu: invalid task %+v", t))
	}
	dur := t.Flops / (t.Efficiency * c.Spec.PeakFlops)
	return Execution{Duration: dur, Power: c.PowerAt(t.Utilization)}
}

// EigensolveTask models a dense symmetric eigensolve of an n×n matrix
// on the host (the RPA exact-diagonalization step): ~(10/3)·n³ flops
// at modest parallel efficiency, running the package near full tilt.
func EigensolveTask(n int) Task {
	return Task{
		Flops:       (10.0 / 3.0) * math.Pow(float64(n), 3),
		Efficiency:  0.25, // eigensolvers are far from GEMM efficiency
		Utilization: 0.75,
	}
}
