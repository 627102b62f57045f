// Package gpu models an NVIDIA A100-class accelerator at the level the
// paper's experiments need: a roofline kernel-timing model, a
// clock-dependent power model, and a power-cap solver that reproduces
// how `nvidia-smi -pl` caps behave on real boards (clock throttling
// with a hard floor, hence overshoot at the 100 W minimum cap).
//
// # Model
//
// A Kernel is a pure work descriptor: {Class, Flops, Bytes, Axes,
// Launches, Entropy}. How that work lands on the hardware — achieved
// compute/bandwidth fractions, SM activity, launch latency — is owned
// by the device's EfficiencyModel (see efficiency.go), which resolves
// the descriptor into an ExecProfile {ComputeOcc, MemOcc, SMActivity,
// Latency, PowerScale}. At SM clock fraction c ∈ [MinClockFrac, 1]:
//
//	F(c) = PeakFlops · c       — SM throughput scales with clock
//	B    = PeakMemBW           — HBM clock is not governed by the cap
//	t(c) = Latency + max(Flops/(ComputeOcc·F(c)), Bytes/(MemOcc·B))
//
// Power while the kernel runs separates SM power from memory power:
//
//	P(c) = Idle + ActiveBase
//	     + CompPowerFull · SMActivity · duty · (γ·c + (1−γ)·c³) · eff
//	     + MemPowerFull  · (byteRate/PeakMemBW) · eff
//
// where duty = (t − Latency)/t quiets the SMs during the fixed-latency
// portion of the kernel (launch gaps, serial chains), and eff folds the
// profile's operand-entropy PowerScale into the device's dynamic
// efficiency — same kernel, different data, different watts.
//
// SMActivity is how busy the SMs are while the kernel runs (issue-slot
// occupancy) — a bandwidth-bound FFT with full thread occupancy keeps
// the SMs hot even though its flop rate is far from tensor peak, which
// is how VASP's hybrid-functional kernels sustain near-TDP power.
// When SMActivity is zero it defaults to ComputeOcc (a pure roofline
// kernel like DGEMM is exactly as hot as it is efficient).
//
// The γ·c + (1−γ)·c³ term models dynamic power ∝ V²f with V ∝ f near
// the top of the DVFS curve: cutting SM power in half costs only ~25%
// clock, and a memory-bound kernel loses no time at all until the
// clock drops below the point where compute becomes critical. These
// two effects are the physical reason behind the paper's headline
// result — a 50% TDP cap costs most VASP workloads <10% performance
// (Fig. 12) — and behind the 100 W floor overshoot (memory power does
// not throttle, Fig. 10).
//
// P is monotone in c, so the largest cap-respecting clock is found by
// bisection. When even the minimum clock exceeds the cap, the kernel
// runs at minimum clock and the cap is overshot.
package gpu

import (
	"fmt"
	"math"

	"vasppower/internal/rng"
)

// Spec holds the architectural and power parameters of a GPU model.
type Spec struct {
	Name          string
	TDP           float64 // board power limit default/max, W (A100 40GB: 400)
	MinPowerLimit float64 // lowest settable power limit, W (100)
	IdleWatts     float64 // board power when no kernel is resident
	ActiveBase    float64 // static adder while a kernel is resident, W

	PeakFlops float64 // FP64 tensor-core peak at max clock, flop/s
	PeakMemBW float64 // HBM bandwidth, B/s
	HBMBytes  float64 // HBM capacity, bytes (40 GB on the studied nodes)

	MaxClockMHz  float64
	MinClockFrac float64 // lowest clock as a fraction of max

	CompPowerFull float64 // SM power at full activity & clock, W
	MemPowerFull  float64 // HBM+controller power at full bandwidth, W
	Gamma         float64 // linear (non-cubed) fraction of SM dynamic power
}

// A100SXM40GB returns the spec used throughout the study: the 40 GB
// A100 in 1,536 of Perlmutter's GPU nodes ("This work uses only the
// 40 GB GPU-accelerated nodes", §II-A). Power constants are
// calibrated so a near-peak DGEMM draws ≈ TDP and the VASP kernel
// mixes land in the paper's published per-GPU power ranges.
func A100SXM40GB() Spec {
	return Spec{
		Name:          "A100-SXM4-40GB",
		TDP:           400,
		MinPowerLimit: 100,
		IdleWatts:     52,
		ActiveBase:    28,
		PeakFlops:     19.5e12, // FP64 via tensor cores
		PeakMemBW:     1.555e12,
		HBMBytes:      40 << 30,
		MaxClockMHz:   1410,
		MinClockFrac:  210.0 / 1410.0,
		CompPowerFull: 330,
		MemPowerFull:  95,
		Gamma:         0.15,
	}
}

// A100SXM80GB returns the 80 GB variant found in 256 of Perlmutter's
// GPU nodes (§II-A): same board power envelope, twice the HBM
// capacity, slightly higher bandwidth (HBM2e). The study excludes
// these nodes; the spec exists so memory-gated configurations can be
// explored.
func A100SXM80GB() Spec {
	s := A100SXM40GB()
	s.Name = "A100-SXM4-80GB"
	s.HBMBytes = 80 << 30
	s.PeakMemBW = 2.039e12
	s.MemPowerFull = 110
	return s
}

// Variability holds the per-device manufacturing-spread parameters.
// Platforms carry these alongside the architectural spec; the node
// layer threads them into New.
type Variability struct {
	// IdleSigma is the relative spread of static power (idle + base).
	IdleSigma float64
	// EffSigma is the relative spread of dynamic-power efficiency.
	EffSigma float64
}

// DefaultVariability returns the spread calibrated to the paper's
// observed device-to-device differences (§III-B.2).
func DefaultVariability() Variability {
	return Variability{IdleSigma: 0.03, EffSigma: 0.02}
}

// Kernel is a pure work descriptor for one GPU kernel launch (or a
// fused batch of identical launches). It states what the kernel does
// — never how well the hardware runs it; that resolution belongs to
// the platform's EfficiencyModel.
type Kernel struct {
	Name string
	// Class selects the efficiency responses in the platform table.
	Class KernelClass
	// Flops is the total floating-point work, in flop.
	Flops float64
	// Bytes is the total DRAM traffic, in bytes.
	Bytes float64
	// Axes are the class-specific size axes the efficiency responses
	// saturate over (e.g. points in flight and resident bands for an
	// FFT batch; m, n, k for a GEMM). Unused axes stay zero.
	Axes [3]float64
	// Launches is the number of kernel launches the batch decomposes
	// into; fixed launch latency scales with it. Zero means the launch
	// cost is negligible (amortized microbenchmark loops).
	Launches float64
	// LatencyScale multiplies the resolved launch latency (0 = 1) —
	// the schedule coarse-graining factor applies here, since it
	// replays the whole launch sequence.
	LatencyScale float64
	// Entropy is the operand entropy of the kernel's data stream in
	// [0,1] (fraction of switching bits). Zero means "unspecified":
	// the platform's reference calibration data.
	Entropy float64
}

// Validate checks that the descriptor is physical: finite,
// non-negative, classed, and non-empty. Non-finite work would
// silently poison the cap-solver bisection, so NaN/±Inf are rejected
// explicitly.
func (k Kernel) Validate() error {
	if err := k.checkField("Flops", k.Flops); err != nil {
		return err
	}
	if err := k.checkField("Bytes", k.Bytes); err != nil {
		return err
	}
	if err := k.checkField("Launches", k.Launches); err != nil {
		return err
	}
	if err := k.checkField("LatencyScale", k.LatencyScale); err != nil {
		return err
	}
	if err := k.checkField("Entropy", k.Entropy); err != nil {
		return err
	}
	for i, a := range k.Axes {
		if nonfinite(a) || a < 0 {
			return fmt.Errorf("gpu: kernel %q Axes[%d] = %v", k.Name, i, a)
		}
	}
	switch {
	case k.Entropy > 1:
		return fmt.Errorf("gpu: kernel %q Entropy %v out of [0,1]", k.Name, k.Entropy)
	case k.Class == "":
		return fmt.Errorf("gpu: kernel %q has no class", k.Name)
	case k.Flops == 0 && k.Bytes == 0 && k.Launches == 0:
		return fmt.Errorf("gpu: kernel %q is empty", k.Name)
	}
	return nil
}

func (k Kernel) checkField(field string, v float64) error {
	if nonfinite(v) {
		return fmt.Errorf("gpu: kernel %q %s is not finite (%v)", k.Name, field, v)
	}
	if v < 0 {
		return fmt.Errorf("gpu: kernel %q %s is negative (%v)", k.Name, field, v)
	}
	return nil
}

// Execution is the outcome of running a kernel under the device's
// current power limit.
type Execution struct {
	Duration  float64 // seconds
	Power     float64 // sustained board power during the kernel, W
	MemPower  float64 // HBM-domain share of Power (stacks + controllers), W
	ClockFrac float64 // clock the cap solver settled on
	Capped    bool    // true if the cap forced a clock below max
}

// NVML power-domain decomposition. A board sensor (the module scope)
// reads the whole package: SM array + caches (the GPU scope), the HBM
// stacks and their controllers (the memory scope), and the on-board
// voltage-regulator conversion losses, which NVML attributes to the
// module but to neither sub-scope. The model splits the board power it
// already computes along those seams; the constants below are the two
// seam parameters.
const (
	// HBMIdleFrac is the fraction of the board's idle draw spent in the
	// memory domain (HBM refresh, standby, controller clocks). The
	// A100's ~52 W idle holds the stacks in self-refresh; teardown
	// measurements put that share near a quarter of the board floor.
	HBMIdleFrac = 0.25
	// ModuleVRFrac is the voltage-regulator conversion loss as a
	// fraction of board power: the module sensor reads it, the GPU and
	// memory scopes do not, which is why gpu + memory < module on real
	// boards.
	ModuleVRFrac = 0.06
)

// HBMIdlePower returns the memory domain's share of the device's idle
// draw (with the device's static-power variability).
func (g *GPU) HBMIdlePower() float64 {
	return HBMIdleFrac * g.Spec.IdleWatts * g.idleScale
}

// CoreDomainPower splits one board-power reading into the NVML GPU
// scope: module power minus VR losses minus the memory domain.
// Clamped at zero so a decomposition fed inconsistent values stays
// physical.
func CoreDomainPower(moduleW, memW float64) float64 {
	core := moduleW*(1-ModuleVRFrac) - memW
	if core < 0 {
		return 0
	}
	return core
}

// GPU is one device instance. Manufacturing variability (the paper
// reports up to 100 W idle spread across nodes and visible differences
// between identical DGEMM runs, §III-B.2) is captured by per-device
// scale factors drawn at construction.
type GPU struct {
	Spec       Spec
	Index      int // position within the node (0..3)
	model      *EfficiencyModel
	powerLimit float64
	clockLimit float64 // max clock fraction (DVFS, nvidia-smi -lgc)
	idleScale  float64 // multiplies idle + static power
	effScale   float64 // multiplies dynamic power
}

// defaultModel is the shared fallback table for devices constructed
// without one (tests, standalone tools). Treated as immutable.
var defaultModel = DefaultEfficiency()

// New creates a device resolving kernels through the given efficiency
// table (nil = the calibrated default), with variability drawn from r
// using the given spread parameters. Pass nil for r for a nominal
// (no-variability) device.
func New(spec Spec, model *EfficiencyModel, index int, r *rng.Stream, v Variability) *GPU {
	if model == nil {
		model = defaultModel
	}
	g := &GPU{Spec: spec, Index: index, model: model, powerLimit: spec.TDP, clockLimit: 1, idleScale: 1, effScale: 1}
	if r != nil {
		// Static and dynamic spreads, clamped to stay physical.
		g.idleScale = clamp(r.Normal(1, v.IdleSigma), 0.9, 1.1)
		g.effScale = clamp(r.Normal(1, v.EffSigma), 0.94, 1.06)
	}
	return g
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

// Model returns the efficiency table this device resolves kernels
// through.
func (g *GPU) Model() *EfficiencyModel { return g.model }

// Resolve maps a work descriptor to its execution profile under the
// device's efficiency table.
func (g *GPU) Resolve(k Kernel) (ExecProfile, error) { return g.model.Resolve(k) }

// PowerLimit returns the current power cap in watts.
func (g *GPU) PowerLimit() float64 { return g.powerLimit }

// SetPowerLimit sets the board power cap. Values outside
// [MinPowerLimit, TDP] are rejected, mirroring nvidia-smi -pl.
func (g *GPU) SetPowerLimit(w float64) error {
	if w < g.Spec.MinPowerLimit || w > g.Spec.TDP {
		return fmt.Errorf("gpu: power limit %.0f W outside [%.0f, %.0f]",
			w, g.Spec.MinPowerLimit, g.Spec.TDP)
	}
	g.powerLimit = w
	return nil
}

// ResetPowerLimit restores the default (TDP) limit.
func (g *GPU) ResetPowerLimit() { g.powerLimit = g.Spec.TDP }

// ClockLimit returns the current DVFS clock ceiling as a fraction of
// the maximum clock (1 = unlocked).
func (g *GPU) ClockLimit() float64 { return g.clockLimit }

// SetClockLimitMHz locks the maximum SM clock (nvidia-smi -lgc), the
// DVFS alternative to power capping discussed in §V. Values outside
// the device's clock range are rejected.
func (g *GPU) SetClockLimitMHz(mhz float64) error {
	frac := mhz / g.Spec.MaxClockMHz
	if frac < g.Spec.MinClockFrac-1e-9 || frac > 1+1e-9 {
		return fmt.Errorf("gpu: clock %.0f MHz outside [%.0f, %.0f]",
			mhz, g.Spec.MinClockFrac*g.Spec.MaxClockMHz, g.Spec.MaxClockMHz)
	}
	g.clockLimit = math.Min(frac, 1)
	return nil
}

// ResetClockLimit unlocks the SM clock.
func (g *GPU) ResetClockLimit() { g.clockLimit = 1 }

// IdlePower returns the device's idle draw (with variability).
func (g *GPU) IdlePower() float64 { return g.Spec.IdleWatts * g.idleScale }

// lowCapThreshold is the cap below which the board's power-management
// control loop can no longer hold the limit tightly. Real A100s
// enforce caps by reacting to measured power; near the 100 W floor the
// reaction time exceeds kernel burst timescales and sustained power
// overshoots the setting. The paper observes exactly this: "At this
// cap [100 W], a larger error is observed" (§V-A, Fig. 10). The
// threshold scales with the board's settable floor (1.5×100 W = 150 W
// on the A100), so boards with higher floors misbehave near *their*
// floor rather than near the A100's.
func (g *GPU) lowCapThreshold() float64 { return 1.5 * g.Spec.MinPowerLimit }

// effectiveCap returns the power level the control loop actually
// holds: the nominal limit plus overshoot slack below lowCapThreshold.
func (g *GPU) effectiveCap() float64 {
	cap := g.powerLimit
	if t := g.lowCapThreshold(); cap < t {
		cap += 0.25 * (t - cap)
	}
	return cap
}

// UncappedPower returns the power the kernel would draw at full clock,
// regardless of the current limit. Useful for calibration and tests.
func (g *GPU) UncappedPower(k Kernel) float64 {
	s := g.uncapped(k)
	d := s.terms(g)
	return s.power(&d, 1)
}

// UncappedDuration returns the kernel duration at full clock.
func (g *GPU) UncappedDuration(k Kernel) float64 {
	s := g.uncapped(k)
	return s.timeAt(1)
}

func (g *GPU) uncapped(k Kernel) CapSolver {
	p, err := g.model.Resolve(k)
	if err != nil {
		panic(err)
	}
	return NewCapSolver(g.Spec, k, p)
}
