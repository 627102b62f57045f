package workloads

import (
	"fmt"

	"vasppower/internal/dft/method"
	"vasppower/internal/dft/parallel"
	"vasppower/internal/hw/gpu"
	"vasppower/internal/hw/platform"
)

// MILC is NERSC's second-largest application by cycles (§VI-B: the
// paper's profiling approach "has been recently applied to NERSC's
// second top application, MILC" [35]). This file models it: lattice
// QCD with staggered fermions — molecular-dynamics trajectories whose
// cost is dominated by conjugate-gradient solves of the fermion
// matrix. The dslash stencil at the heart of CG streams the entire
// lattice with arithmetic intensity below 1 flop/byte, so MILC is
// deeply bandwidth-bound: flat, moderate GPU power (a very different
// signature from VASP's GEMM-heavy hybrids) and high tolerance to GPU
// power caps.
type MILCSpec struct {
	Name string
	// Lattice extents {x, y, z, t}, e.g. {32, 32, 32, 64}.
	Lattice [4]int
	// Trajectories is the number of MD trajectories to run.
	Trajectories int
	// MDSteps is the number of integration steps per trajectory.
	MDSteps int
	// CGIters is the CG iteration count per fermion solve (two solves
	// per MD step: one for the force, one for the action).
	CGIters int
}

// DefaultMILC returns a production-sized run: a 32³×64 lattice, the
// scale of contemporary finite-temperature ensembles.
func DefaultMILC() MILCSpec {
	return MILCSpec{
		Name:         "milc_32c64",
		Lattice:      [4]int{32, 32, 32, 64},
		Trajectories: 3,
		MDSteps:      20,
		CGIters:      600,
	}
}

// Sites returns the lattice volume.
func (m MILCSpec) Sites() int {
	return m.Lattice[0] * m.Lattice[1] * m.Lattice[2] * m.Lattice[3]
}

// Validate checks the spec.
func (m MILCSpec) Validate() error {
	for _, d := range m.Lattice {
		if d < 4 {
			return fmt.Errorf("workloads: MILC lattice extent %d too small", d)
		}
	}
	if m.Trajectories <= 0 || m.MDSteps <= 0 || m.CGIters <= 0 {
		return fmt.Errorf("workloads: MILC %s has empty work", m.Name)
	}
	return nil
}

// Staggered-fermion kernel constants (per lattice site, per dslash
// application): the standard operation/byte counts of the MILC
// su3 codebase.
const (
	milcDslashFlopsPerSite = 1146.0 // naik-improved staggered dslash
	milcDslashBytesPerSite = 1560.0 // gauge links + vectors, fp32/fp64 mix
	milcForceFlopsPerSite  = 4500.0 // gauge + fermion force (SU(3) algebra)
	milcForceBytesPerSite  = 1100.0
	milcHaloBytesPerSite   = 72.0 // surface exchange per MD step (amortized)
)

// milcSchedule builds the step list for a MILC run over the given
// decomposition. The Step vocabulary is shared with the DFT solver —
// the schedule/solver layers are application-agnostic.
func milcSchedule(spec MILCSpec, d parallel.Decomposition) *method.Schedule {
	sitesPerRank := float64(spec.Sites()) / float64(d.Ranks)
	sched := &method.Schedule{Name: spec.Name,
		Steps: make([]method.Step, 0, 1+spec.Trajectories*(3*spec.MDSteps+1))}
	add := func(s method.Step) { sched.Steps = append(sched.Steps, s) }

	add(method.Step{
		Label: "setup", Kind: method.StepHost, HostSeconds: 2.0,
		MemActivity: 0.2, Phase: "setup",
	})
	for tr := 0; tr < spec.Trajectories; tr++ {
		for st := 0; st < spec.MDSteps; st++ {
			pfx := fmt.Sprintf("tr%02d.md%02d", tr, st)
			// Two CG solves per step, each CGIters applications of the
			// dslash stencil: bandwidth-bound, high occupancy, SMs
			// mostly waiting on HBM.
			cg := float64(2 * spec.CGIters)
			add(method.Step{
				Label: pfx + ".cg-dslash", Kind: method.StepGPU,
				GPU: gpu.Kernel{
					Name:  pfx + ".cg-dslash",
					Class: gpu.ClassStencil,
					Flops: cg * milcDslashFlopsPerSite * sitesPerRank,
					Bytes: cg * milcDslashBytesPerSite * sitesPerRank,
				},
				MemActivity: 0.85, Phase: "cg",
			})
			// Force computation and link update: SU(3) matrix algebra,
			// compute-leaning.
			add(method.Step{
				Label: pfx + ".force", Kind: method.StepGPU,
				GPU: gpu.Kernel{
					Name:  pfx + ".force",
					Class: gpu.ClassSU3Force,
					Flops: milcForceFlopsPerSite * sitesPerRank * 8,
					Bytes: milcForceBytesPerSite * sitesPerRank * 8,
				},
				MemActivity: 0.6, Phase: "force",
			})
			// Halo exchange for the next step.
			add(method.Step{
				Label: pfx + ".halo", Kind: method.StepComm,
				Comm: method.Comm{
					Op:    method.CommAllToAll,
					Bytes: milcHaloBytesPerSite * sitesPerRank * float64(d.Ranks) * float64(spec.CGIters) / 50,
					Scope: method.ScopeAll,
				},
				MemActivity: 0.3, Phase: "comm",
			})
		}
		// Metropolis accept/reject + plaquette measurement on the host.
		add(method.Step{
			Label: fmt.Sprintf("tr%02d.measure", tr), Kind: method.StepHost,
			HostSeconds: 1.5, MemActivity: 0.2, Phase: "measure",
		})
	}
	return sched
}

// MILCRunSpec mirrors RunSpec for the MILC application.
type MILCRunSpec struct {
	Spec MILCSpec
	// Platform selects the hardware; the zero value resolves to the
	// default platform.
	Platform         platform.Platform
	Nodes            int
	GPUPowerLimit    float64
	GPUClockLimitMHz float64
	Repeats          int
	Seed             uint64
	// Workers bounds concurrent repeats, as in RunSpec.
	Workers int
	// OperandEntropy mirrors RunSpec.OperandEntropy: the operand
	// entropy of the lattice data stream (0 = reference).
	OperandEntropy float64
}

// RunMILC executes a MILC measurement run with the same protocol as
// the VASP runs (repeats, min-runtime selection, per-node traces).
func RunMILC(spec MILCRunSpec) (RunOutput, error) {
	if err := spec.Spec.Validate(); err != nil {
		return RunOutput{}, err
	}
	if spec.Nodes <= 0 {
		return RunOutput{}, fmt.Errorf("workloads: node count %d", spec.Nodes)
	}
	spec.Platform = platform.OrDefault(spec.Platform)
	// MILC decomposes the lattice over ranks; the "bands" level is the
	// per-rank sub-lattice. Reuse the decomposition type with one
	// pseudo-band per site row.
	d, err := parallel.Decompose(spec.Spec.Lattice[3], 1, spec.Nodes, spec.Platform.GPUsPerNode, 1)
	if err != nil {
		return RunOutput{}, err
	}
	sched := milcSchedule(spec.Spec, d)
	if err := stampEntropy(sched, spec.OperandEntropy); err != nil {
		return RunOutput{}, err
	}
	pr := newProtocol(protocol{
		name:     spec.Spec.Name,
		platform: spec.Platform,
		nodes:    spec.Nodes,
		seed:     spec.Seed,
		capW:     spec.GPUPowerLimit,
		clockMHz: spec.GPUClockLimitMHz,
		sched:    sched,
		decomp:   d,
	}, spec.Repeats)
	return pr.run(spec.Workers)
}
