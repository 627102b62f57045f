// Efficiency tables: the platform-owned resolution from a pure work
// descriptor (Kernel) to an execution profile (ExecProfile).
//
// The paper's power profiles hinge on *achieved* efficiency — how far
// each kernel sits from peak flops and peak bandwidth. Before this
// table existed, that knowledge lived as ~30 occupancy/activity
// constants scattered through the dft/method kernel builders and the
// workloads schedules, invisible to the platform registry. Now a
// Kernel carries only work (flops, bytes, size axes, launches,
// operand entropy) and the platform's EfficiencyModel owns how that
// work lands on the hardware: per-kernel-class MFU/MBU/SM-activity
// response tables keyed by saturating size axes, plus an
// entropy→dynamic-power factor per "Understanding the Impact of Input
// Entropy on FPU, CPU, and GPU Power". Two platforms resolve the same
// descriptor differently by carrying different tables — which is what
// turns an extrapolated platform into one you can actually edit.
package gpu

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"
)

// KernelClass names a family of kernels that share an efficiency
// response: same hardware, same class, same achieved-efficiency curve.
type KernelClass string

// The kernel classes of the VASP workload model (internal/dft/method)
// and the microbenchmark/MILC schedules (internal/workloads).
const (
	// ClassFFT is the batched band-FFT of the plain-DFT SCF loop.
	ClassFFT KernelClass = "fft"
	// ClassExchangeFFT is the HSE exact-exchange pair transform.
	ClassExchangeFFT KernelClass = "exch-fft"
	// ClassGEMM is a complex GEMM (subspace rotation, orthonormalization,
	// exchange accumulation, RPA polarizability).
	ClassGEMM KernelClass = "gemm"
	// ClassEig is the dense GPU eigensolve of a subspace matrix.
	ClassEig KernelClass = "eig"
	// ClassNonlocal is real-space nonlocal projection.
	ClassNonlocal KernelClass = "nonlocal"
	// ClassVdW is the pairwise dispersion-correction kernel.
	ClassVdW KernelClass = "vdw"
	// ClassDGEMMPeak is the near-peak DGEMM burn-in microbenchmark.
	ClassDGEMMPeak KernelClass = "dgemm-peak"
	// ClassStreamTriad is the STREAM triad bandwidth microbenchmark.
	ClassStreamTriad KernelClass = "stream-triad"
	// ClassStencil is the MILC staggered-dslash stencil.
	ClassStencil KernelClass = "stencil"
	// ClassSU3Force is the MILC SU(3) force/link-update kernel.
	ClassSU3Force KernelClass = "su3-force"
)

// ExecProfile is a resolved execution profile: how a work descriptor
// actually lands on a specific device, as decided by the platform's
// EfficiencyModel. The roofline/power solver consumes this, never the
// table itself.
type ExecProfile struct {
	// ComputeOcc ∈ (0,1] is the fraction of peak flop throughput
	// achieved at full clock (MFU: occupancy × pipe efficiency).
	ComputeOcc float64
	// MemOcc ∈ (0,1] is the fraction of peak bandwidth achieved (MBU).
	MemOcc float64
	// SMActivity ∈ [0,1] is SM issue-slot busyness while the kernel
	// runs; it drives SM power independently of the flop rate.
	// Zero means "derive from ComputeOcc".
	SMActivity float64
	// Latency is fixed time not overlapped with the roofline terms.
	Latency float64
	// PowerScale multiplies dynamic power (the operand-entropy factor;
	// zero means 1).
	PowerScale float64
}

// Response is one efficiency response curve: a ceiling scaled by
// saturating functions of the kernel's size axes,
//
//	value = Cap · ∏_{i: Half[i]>0} axes[i]/(axes[i]+Half[i])
//
// A zero Half entry ignores that axis; a Response with no active
// halves is the constant Cap.
type Response struct {
	Cap  float64    `json:"cap"`
	Half [3]float64 `json:"half"`
}

// eval chains the response's own per-axis saturations onto its cap.
func (r Response) eval(axes [3]float64) float64 {
	v := r.Cap
	for i, h := range r.Half {
		if h > 0 {
			v *= sat(axes[i], h)
		}
	}
	return v
}

// ClassEfficiency is the response table for one kernel class.
type ClassEfficiency struct {
	// Fill, when any element is nonzero, defines a shared GPU-fill
	// factor ∏_{i: Fill[i]>0} sat(axes[i], Fill[i]) that scales every
	// response cap together (the per-response Half entries are then
	// ignored). This models classes whose compute, bandwidth, and SM
	// activity all track one physical fill level — e.g. band FFTs
	// governed by points-in-flight. When Fill is all zero, each
	// response chains its own per-axis saturations independently.
	Fill [3]float64 `json:"fill"`
	// Compute is the MFU response (fraction of peak flops).
	Compute Response `json:"compute"`
	// Memory is the MBU response (fraction of peak bandwidth).
	Memory Response `json:"memory"`
	// SMActivity is the issue-slot busyness response. A zero cap with
	// no halves means "derive from the compute occupancy".
	SMActivity Response `json:"sm_activity"`
	// LaunchFactor scales the model's per-launch latency for this
	// class (0 = 1): serialized panel solvers pay more per launch.
	LaunchFactor float64 `json:"launch_factor,omitempty"`
}

// EntropyModel maps operand entropy (0..1, fraction of switching bits
// in the data stream) to a dynamic-power factor. Per the entropy
// study, the same kernel on different data draws measurably different
// power: low-entropy operands toggle fewer wires.
type EntropyModel struct {
	// Ref is the entropy of the calibration data (power factor 1).
	Ref float64 `json:"ref"`
	// Sensitivity is the relative dynamic-power swing across the full
	// entropy range: scale = 1 + Sensitivity·(entropy − Ref).
	Sensitivity float64 `json:"sensitivity"`
}

// Scale returns the dynamic-power factor for the given operand
// entropy. Zero entropy means "unspecified" and returns exactly 1,
// so descriptors that never state an entropy reproduce the reference
// calibration bit-for-bit.
func (e EntropyModel) Scale(entropy float64) float64 {
	if entropy == 0 {
		return 1
	}
	return 1 + e.Sensitivity*(entropy-e.Ref)
}

// EfficiencyModel is a platform's complete achieved-efficiency table:
// per-class MFU/MBU/SM-activity responses plus the shared launch
// latency, occupancy floor, and entropy factor. Models are treated as
// immutable once in use: they are shared by pointer across a
// platform's devices, and Hash keys cached measurements by the content
// it saw on its first call.
type EfficiencyModel struct {
	Name string `json:"name"`
	// OccFloor clamps resolved compute/memory occupancies from below,
	// keeping degenerate descriptors from dividing by ~zero.
	OccFloor float64 `json:"occ_floor"`
	// LaunchLatency is the fixed cost per kernel launch, seconds.
	LaunchLatency float64 `json:"launch_latency"`
	// Entropy maps operand entropy to a dynamic-power factor.
	Entropy EntropyModel `json:"entropy"`
	// Classes holds one response table per kernel class.
	Classes map[KernelClass]ClassEfficiency `json:"classes"`

	hashOnce sync.Once
	hash     string
}

// sat is the saturating response curve work/(work+half).
func sat(work, half float64) float64 {
	if work <= 0 {
		return 0
	}
	return work / (work + half)
}

// floorOcc clamps an occupancy to [floor, 1].
func floorOcc(x, floor float64) float64 {
	if x < floor {
		return floor
	}
	if x > 1 {
		return 1
	}
	return x
}

// Resolve maps a work descriptor to its execution profile under this
// table. It returns an error for classes the table does not know —
// a descriptor emitted for hardware the platform never calibrated.
func (m *EfficiencyModel) Resolve(k Kernel) (ExecProfile, error) {
	ce, ok := m.Classes[k.Class]
	if !ok {
		return ExecProfile{}, fmt.Errorf("gpu: efficiency table %q has no class %q", m.Name, k.Class)
	}
	var comp, mem, sma float64
	if ce.Fill != ([3]float64{}) {
		fill := 1.0
		for i, h := range ce.Fill {
			if h > 0 {
				fill *= sat(k.Axes[i], h)
			}
		}
		comp = ce.Compute.Cap * fill
		mem = ce.Memory.Cap * fill
		sma = ce.SMActivity.Cap * fill
	} else {
		comp = ce.Compute.eval(k.Axes)
		mem = ce.Memory.eval(k.Axes)
		sma = ce.SMActivity.eval(k.Axes)
	}
	lat := k.Launches * m.LaunchLatency
	if ce.LaunchFactor != 0 {
		lat *= ce.LaunchFactor
	}
	if k.LatencyScale != 0 {
		lat *= k.LatencyScale
	}
	return ExecProfile{
		ComputeOcc: floorOcc(comp, m.OccFloor),
		MemOcc:     floorOcc(mem, m.OccFloor),
		SMActivity: sma,
		Latency:    lat,
		PowerScale: m.Entropy.Scale(k.Entropy),
	}, nil
}

// Validate checks the table's internal consistency.
func (m *EfficiencyModel) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("gpu: efficiency table has no name")
	}
	if nonfinite(m.OccFloor) || m.OccFloor <= 0 || m.OccFloor > 1 {
		return fmt.Errorf("gpu: table %q OccFloor %v out of (0,1]", m.Name, m.OccFloor)
	}
	if nonfinite(m.LaunchLatency) || m.LaunchLatency < 0 {
		return fmt.Errorf("gpu: table %q LaunchLatency %v", m.Name, m.LaunchLatency)
	}
	if nonfinite(m.Entropy.Ref) || m.Entropy.Ref < 0 || m.Entropy.Ref > 1 {
		return fmt.Errorf("gpu: table %q entropy reference %v out of [0,1]", m.Name, m.Entropy.Ref)
	}
	if nonfinite(m.Entropy.Sensitivity) {
		return fmt.Errorf("gpu: table %q entropy sensitivity %v", m.Name, m.Entropy.Sensitivity)
	}
	if len(m.Classes) == 0 {
		return fmt.Errorf("gpu: table %q has no classes", m.Name)
	}
	for class, ce := range m.Classes {
		if err := ce.validate(); err != nil {
			return fmt.Errorf("gpu: table %q class %q: %w", m.Name, class, err)
		}
	}
	return nil
}

func (ce ClassEfficiency) validate() error {
	for _, h := range ce.Fill {
		if nonfinite(h) || h < 0 {
			return fmt.Errorf("fill half-saturation %v", h)
		}
	}
	if err := ce.Compute.validate("compute", 0); err != nil {
		return err
	}
	if err := ce.Memory.validate("memory", 0); err != nil {
		return err
	}
	// A zero SM-activity cap is legal: "derive from compute".
	if err := ce.SMActivity.validate("sm_activity", -1); err != nil {
		return err
	}
	if nonfinite(ce.LaunchFactor) || ce.LaunchFactor < 0 {
		return fmt.Errorf("launch factor %v", ce.LaunchFactor)
	}
	return nil
}

func (r Response) validate(name string, minCap float64) error {
	if nonfinite(r.Cap) || r.Cap <= minCap || r.Cap > 1 {
		return fmt.Errorf("%s cap %v out of range", name, r.Cap)
	}
	for _, h := range r.Half {
		if nonfinite(h) || h < 0 {
			return fmt.Errorf("%s half-saturation %v", name, h)
		}
	}
	return nil
}

// Hash returns a short content hash of the table, suitable for cache
// keys: two platforms with byte-identical tables hash equally, and any
// edited response changes the hash (invalidating cached measurements
// taken under the old table). It sits on the measurement cache-key hot
// path, so the model computes it once, on the first call, and keeps
// it.
func (m *EfficiencyModel) Hash() string {
	m.hashOnce.Do(func() {
		b, err := json.Marshal(m) // map keys marshal in sorted order
		if err != nil {
			panic(fmt.Sprintf("gpu: hashing efficiency table %q: %v", m.Name, err))
		}
		sum := sha256.Sum256(b)
		m.hash = hex.EncodeToString(sum[:8])
	})
	return m.hash
}

func nonfinite(x float64) bool {
	return math.IsNaN(x) || math.IsInf(x, 0)
}

// DefaultEfficiency returns the calibrated perlmutter-a100 table: the
// exact response surface that previously lived as inline constants in
// the dft/method kernel builders and the workloads schedules, now in
// one place. `calibrate -fit-tables` recovers this table black-box
// from microbenchmark probes (duration and power only); the retained
// constant-based oracle in dft/method's differential tests pins it.
func DefaultEfficiency() *EfficiencyModel {
	return &EfficiencyModel{
		Name:          "perlmutter-a100",
		OccFloor:      0.05,
		LaunchLatency: 6e-6,
		// Reference data is mixed-sign double-precision wavefunction
		// coefficients (entropy ≈ 0.5); the sensitivity follows the
		// entropy study's GPU FP64 dynamic-power swing.
		Entropy: EntropyModel{Ref: 0.5, Sensitivity: 0.24},
		Classes: map[KernelClass]ClassEfficiency{
			// Band FFTs batch NSIM bands: fill — and with it achieved
			// bandwidth and SM activity — is governed by points in
			// flight (axis 0: NSIM·NPLWV) and resident bands (axis 1).
			ClassFFT: {
				Fill:       [3]float64{2.5e6, 240, 0},
				Compute:    Response{Cap: 0.60},
				Memory:     Response{Cap: 0.85},
				SMActivity: Response{Cap: 0.92},
			},
			// Exchange pair transforms batch across band pairs: fill is
			// governed by pairs·grid points in flight (axis 0).
			ClassExchangeFFT: {
				Fill:       [3]float64{3.7e8, 0, 0},
				Compute:    Response{Cap: 0.60},
				Memory:     Response{Cap: 0.55},
				SMActivity: Response{Cap: 0.76},
			},
			// GEMM efficiency saturates per dimension (m, n, k); SM
			// activity follows the achieved efficiency (derived).
			ClassGEMM: {
				Compute: Response{Cap: 0.96, Half: [3]float64{300, 12, 24}},
				Memory:  Response{Cap: 0.70},
			},
			// Dense eigensolver: heavily serialized panels (axis 0 is
			// the flop count), long launch chains.
			ClassEig: {
				Compute:      Response{Cap: 0.45, Half: [3]float64{6e10, 0, 0}},
				Memory:       Response{Cap: 0.5},
				SMActivity:   Response{Cap: 0.15},
				LaunchFactor: 4,
			},
			// Real-space nonlocal projection: compute saturates with
			// total work (axis 0), bandwidth and activity with resident
			// bands (axis 1).
			ClassNonlocal: {
				Compute:      Response{Cap: 0.5, Half: [3]float64{5e9, 0, 0}},
				Memory:       Response{Cap: 0.45, Half: [3]float64{0, 240, 0}},
				SMActivity:   Response{Cap: 0.5, Half: [3]float64{0, 240, 0}},
				LaunchFactor: 2,
			},
			// Pairwise dispersion: latency-dominated at benchmark sizes.
			ClassVdW: {
				Compute:    Response{Cap: 0.25, Half: [3]float64{1e9, 0, 0}},
				Memory:     Response{Cap: 0.3},
				SMActivity: Response{Cap: 0.12},
			},
			// Burn-in microbenchmarks (Fig. 1 prelude).
			ClassDGEMMPeak: {
				Compute: Response{Cap: 0.95},
				Memory:  Response{Cap: 0.85},
			},
			ClassStreamTriad: {
				Compute:    Response{Cap: 0.9},
				Memory:     Response{Cap: 0.92},
				SMActivity: Response{Cap: 0.30}, // SMs mostly stalled on HBM
			},
			// MILC lattice QCD (§VI-B).
			ClassStencil: {
				Compute:    Response{Cap: 0.60},
				Memory:     Response{Cap: 0.75},
				SMActivity: Response{Cap: 0.42},
			},
			ClassSU3Force: {
				Compute:    Response{Cap: 0.55},
				Memory:     Response{Cap: 0.60},
				SMActivity: Response{Cap: 0.62},
			},
		},
	}
}
