// Package method builds per-method execution schedules for the
// miniVASP workload model: the ordered sequence of GPU kernels, CPU
// tasks, communication operations, and host gaps that one job
// executes. The paper's §IV-D examines seven methods; each maps to a
// distinct kernel mix and therefore a distinct power signature:
//
//   - dft_rmm   (ALGO=VeryFast)  RMM-DIIS                — FFT-heavy
//   - dft_bd    (ALGO=Normal)    blocked Davidson        — FFT+GEMM
//   - dft_bdrmm (ALGO=Fast)      Davidson then RMM-DIIS  — mix
//   - dft_cg    (ALGO=All/Damped) conjugate gradient     — mix
//   - vdw       (IVDW>0)         RMM-DIIS + dispersion   — + small kernel
//   - hse       (LHFCALC)        damped CG + exact exchange — GEMM-dominated,
//     the highest sustained GPU power
//   - acfdtr    (ALGO=ACFDTR)    RPA: DFT ground state, CPU-only exact
//     diagonalization (not GPU-ported in VASP 6.4.1), then
//     polarizability GEMM sweeps — the multi-modal, high-swing
//     timeline of Figs. 3 and 11
package method

import (
	"fmt"

	"vasppower/internal/dft/incar"
	"vasppower/internal/dft/parallel"
	"vasppower/internal/hw/cpu"
	"vasppower/internal/hw/gpu"
)

// Kind identifies one of the modeled methods.
type Kind int

// The seven methods of the paper's Fig. 9, in its naming.
const (
	DFTRMM Kind = iota
	DFTBD
	DFTBDRMM
	DFTCG
	VDW
	HSE
	ACFDTR
)

// Kinds lists all methods in display order.
func Kinds() []Kind { return []Kind{DFTRMM, DFTBD, DFTBDRMM, DFTCG, VDW, HSE, ACFDTR} }

func (k Kind) String() string {
	switch k {
	case DFTRMM:
		return "dft_rmm"
	case DFTBD:
		return "dft_bd"
	case DFTBDRMM:
		return "dft_bdrmm"
	case DFTCG:
		return "dft_cg"
	case VDW:
		return "vdw"
	case HSE:
		return "hse"
	case ACFDTR:
		return "acfdtr"
	}
	return fmt.Sprintf("method(%d)", int(k))
}

// FromParams derives the method from INCAR parameters, mirroring how
// VASP dispatches on ALGO/LHFCALC/IVDW.
func FromParams(p incar.Params) (Kind, error) {
	switch {
	case p.Algo == incar.AlgoACFDT || p.Algo == incar.AlgoACFDTR:
		return ACFDTR, nil
	case p.LHFCalc:
		return HSE, nil
	case p.IVDW > 0:
		return VDW, nil
	}
	switch p.Algo {
	case incar.AlgoNormal:
		return DFTBD, nil
	case incar.AlgoVeryFast:
		return DFTRMM, nil
	case incar.AlgoFast:
		return DFTBDRMM, nil
	case incar.AlgoDamped, incar.AlgoAll:
		return DFTCG, nil
	case incar.AlgoExact:
		return ACFDTR, nil
	}
	return 0, fmt.Errorf("method: cannot map ALGO=%s", p.Algo)
}

// StepKind distinguishes what a schedule step occupies.
type StepKind int

// Step kinds.
const (
	StepGPU  StepKind = iota // all GPUs run Kernel concurrently
	StepCPU                  // host computes, GPUs idle
	StepComm                 // collective communication
	StepHost                 // serial host work / launch gaps, all quiet
)

// CommOp is a collective kind.
type CommOp int

// Collective operations used by the schedules.
const (
	CommAllReduce CommOp = iota
	CommAllToAll
	CommBroadcast
)

// CommScope selects which ranks participate.
type CommScope int

// Scopes: one KPAR group, or the whole job.
const (
	ScopeGroup CommScope = iota
	ScopeAll
)

// Comm describes one collective.
type Comm struct {
	Op    CommOp
	Bytes float64
	Scope CommScope
}

// Step is one entry of a schedule.
type Step struct {
	Label       string
	Kind        StepKind
	GPU         gpu.Kernel // StepGPU
	CPU         cpu.Task   // StepCPU
	Comm        Comm       // StepComm
	HostSeconds float64    // StepHost
	MemActivity float64    // DDR activity ∈ [0,1] during the step
	Phase       string     // coarse phase label ("scf", "exact-diag", "rpa")
}

// Schedule is the full ordered step list of one job (all SCF
// iterations flattened).
type Schedule struct {
	Name  string
	Steps []Step
}

// Config carries everything a schedule builder needs.
type Config struct {
	Kind        Kind
	NBands      int
	NPW         int // plane waves per band
	NPLWV       int // dense grid points
	NElectrons  int
	NIons       int
	NELM        int // SCF iterations to run
	NSim        int // band blocking
	NBandsExact int // ACFDTR only
	Decomp      parallel.Decomposition
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	switch {
	case c.NBands <= 0 || c.NPW <= 0 || c.NPLWV <= 0:
		return fmt.Errorf("method: non-positive problem size (nbands=%d npw=%d nplwv=%d)", c.NBands, c.NPW, c.NPLWV)
	case c.NElectrons <= 0 || c.NIons <= 0:
		return fmt.Errorf("method: non-positive system size")
	case c.NELM <= 0:
		return fmt.Errorf("method: NELM %d", c.NELM)
	case c.NSim <= 0:
		return fmt.Errorf("method: NSIM %d", c.NSim)
	case c.Decomp.Ranks <= 0:
		return fmt.Errorf("method: unresolved decomposition")
	case c.NBands < c.NElectrons/2:
		return fmt.Errorf("method: NBANDS %d below occupied count %d", c.NBands, c.NElectrons/2)
	}
	if c.Kind == ACFDTR && c.NBandsExact <= 0 {
		return fmt.Errorf("method: ACFDTR requires NBANDSEXACT")
	}
	return nil
}

// Build constructs the schedule for the configuration.
func Build(c Config) (*Schedule, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	b := &builder{cfg: c, steps: make([]Step, 0, stepCount(c))}
	switch c.Kind {
	case DFTRMM, DFTBD, DFTBDRMM, DFTCG, VDW:
		b.buildSCF(c.Kind)
	case HSE:
		b.buildHSE()
	case ACFDTR:
		b.buildACFDTR()
	default:
		return nil, fmt.Errorf("method: unknown kind %v", c.Kind)
	}
	return &Schedule{Name: c.Kind.String(), Steps: b.steps}, nil
}

// GPUSeconds returns the summed uncapped-roofline estimate of GPU step
// durations (diagnostic; the solver computes real durations).
func (s *Schedule) GPUSeconds(g *gpu.GPU) float64 {
	var t float64
	for _, st := range s.Steps {
		if st.Kind == StepGPU {
			t += g.UncappedDuration(st.GPU)
		}
	}
	return t
}

// CountKind returns how many steps have the given kind.
func (s *Schedule) CountKind(k StepKind) int {
	n := 0
	for _, st := range s.Steps {
		if st.Kind == k {
			n++
		}
	}
	return n
}

// MemoryPerGPU estimates the per-GPU HBM footprint of the
// configuration, in bytes: the local band block (orbitals plus their
// H-applications), the dense grids, plus method-specific extras — the
// replicated occupied-orbital set for exact exchange and the
// polarizability slab and exact-orbital block for RPA. This is what
// decides whether a job fits the 40 GB devices the paper studies.
func (c Config) MemoryPerGPU() float64 {
	const complexB = 16.0
	bpr := float64(c.Decomp.BandsPerRank)
	npw := float64(c.NPW)
	mem := 2 * bpr * npw * complexB  // ψ and Hψ blocks
	mem += 12 * float64(c.NPLWV) * 8 // density, potentials, work grids
	switch c.Kind {
	case HSE:
		// The occupied set is kept resident (real-space, exchange grid)
		// on every GPU of the group.
		npwx := float64(c.NPLWV) / 2
		mem += float64(c.NElectrons/2) * npwx * complexB
	case ACFDTR:
		// Polarizability slab (npw × npw/ranks) plus the exact-orbital
		// block streamed through each rank.
		ranks := float64(c.Decomp.Ranks)
		mem += npw * (npw / ranks) * complexB
		mem += float64(c.NBandsExact) * npw * complexB / ranks
	}
	return mem
}
