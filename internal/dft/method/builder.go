package method

import (
	"fmt"

	"vasppower/internal/hw/cpu"
	"vasppower/internal/hw/gpu"
)

// Memory-activity levels per step flavor (fraction of full DDR load).
const (
	memFFT  = 0.70
	memGEMM = 0.35
	memEig  = 0.30
	memNL   = 0.50
	memComm = 0.25
	memHost = 0.15
	memCPU  = 0.95
)

// hApplications returns the number of H·ψ applications per band per
// SCF iteration for each iteration scheme (VASP-typical counts).
func hApplications(k Kind, iter int) int {
	switch k {
	case DFTRMM, VDW:
		return 5 // RMM-DIIS residual minimization sweeps
	case DFTBD:
		return 6 // Davidson subspace expansions
	case DFTBDRMM:
		if iter < 5 {
			return 6 // initial Davidson iterations
		}
		return 5 // then RMM-DIIS
	case DFTCG, HSE:
		return 4 // (damped) conjugate gradient steps
	}
	return 5
}

type builder struct {
	cfg   Config
	steps []Step
}

// stepCount returns how many steps the builder emits for c, so the
// step list is allocated once at its final size (a schedule is built
// per measurement and runs to thousands of steps). It mirrors the
// build* methods' loop structure; TestStepCountExact pins it.
func stepCount(c Config) int {
	kpg := c.Decomp.KPointsPerGroup
	scf := func(kind Kind) int {
		n := 8*kpg + 2
		if kind == VDW {
			n++
		}
		return n
	}
	switch c.Kind {
	case HSE:
		return 2 + c.NELM*(4*kpg+scf(HSE))
	case ACFDTR:
		return 1 + min(14, c.NELM)*scf(DFTBD) + 3 + 24*3 + 1
	}
	return 2 + c.NELM*scf(c.Kind)
}

func (b *builder) add(s Step) { b.steps = append(b.steps, s) }

func (b *builder) gpuStep(label, phase string, k gpu.Kernel, mem float64) {
	b.add(Step{Label: label, Kind: StepGPU, GPU: k, MemActivity: mem, Phase: phase})
}

func (b *builder) commStep(label, phase string, op CommOp, bytes float64, scope CommScope) {
	b.add(Step{Label: label, Kind: StepComm, Comm: Comm{Op: op, Bytes: bytes, Scope: scope},
		MemActivity: memComm, Phase: phase})
}

func (b *builder) hostStep(label, phase string, dur float64) {
	b.add(Step{Label: label, Kind: StepHost, HostSeconds: dur, MemActivity: memHost, Phase: phase})
}

func (b *builder) cpuStep(label, phase string, t cpu.Task) {
	b.add(Step{Label: label, Kind: StepCPU, CPU: t, MemActivity: memCPU, Phase: phase})
}

// hostPerKpt is the serial host time per k-point per iteration:
// orbital bookkeeping, occupancy updates, launch queue stalls. Small
// systems spend relatively more time here, which is one of the two
// mechanisms (with low occupancy) behind their low GPU power.
func (b *builder) hostPerKpt() float64 {
	c := b.cfg
	return 0.006 + float64(c.NPLWV)*2e-9 + float64(c.Decomp.BandsPerRank)*3e-5
}

// hostMix is the per-iteration charge-mixing and setup host time.
func (b *builder) hostMix() float64 {
	return 0.02 + float64(b.cfg.NPLWV)*4e-9
}

// scfIteration emits the steps of one SCF iteration of the plain-DFT
// flavors (and the non-exchange part of HSE iterations).
func (b *builder) scfIteration(kind Kind, iter int, phase string) {
	c := b.cfg
	d := c.Decomp
	bpr := d.BandsPerRank
	nH := hApplications(kind, iter)
	for kp := 0; kp < d.KPointsPerGroup; kp++ {
		pfx := fmt.Sprintf("it%02d.k%d", iter, kp)
		// H·ψ: transform every local band to real space and back for
		// each H application.
		b.gpuStep(pfx+".fft-hpsi", phase,
			fftBatchKernel(pfx+".fft-hpsi", bpr*nH*2, c.NPLWV, c.NSim, bpr), memFFT)
		// Nonlocal pseudopotential projection (real space).
		b.gpuStep(pfx+".nonlocal", phase,
			nonlocalKernel(pfx+".nonlocal", c.NIons, bpr, nH), memNL)
		// Subspace matrix build: S = Ψ†·(HΨ), distributed over bands.
		b.gpuStep(pfx+".subspace-gemm", phase,
			gemmKernel(pfx+".subspace-gemm", c.NBands, bpr, c.NPW), memGEMM)
		// Subspace matrix all-reduce within the KPAR group.
		b.commStep(pfx+".subspace-allreduce", phase, CommAllReduce,
			float64(c.NBands)*float64(c.NBands)*complexBytes, ScopeGroup)
		// Subspace diagonalization (replicated on each GPU).
		b.gpuStep(pfx+".subspace-eig", phase, eigKernel(pfx+".subspace-eig", c.NBands), memEig)
		// Rotation: Ψ ← Ψ·U.
		b.gpuStep(pfx+".rotate-gemm", phase,
			gemmKernel(pfx+".rotate-gemm", c.NPW, bpr, c.NBands), memGEMM)
		// New density contribution: one transform per local band.
		b.gpuStep(pfx+".fft-density", phase,
			fftBatchKernel(pfx+".fft-density", bpr, c.NPLWV, c.NSim, bpr), memFFT)
		b.hostStep(pfx+".host", phase, b.hostPerKpt())
	}
	// Density all-reduce across the whole job (sums over bands and
	// k-point groups); the density is real-valued.
	b.commStep(fmt.Sprintf("it%02d.density-allreduce", iter), phase,
		CommAllReduce, float64(c.NPLWV)*8, ScopeAll)
	if kind == VDW {
		b.gpuStep(fmt.Sprintf("it%02d.vdw", iter), phase, vdwKernel(c.NIons), 0.2)
	}
	b.hostStep(fmt.Sprintf("it%02d.mix", iter), phase, b.hostMix())
}

// buildSCF emits a plain-DFT job: setup, NELM iterations, wrap-up.
func (b *builder) buildSCF(kind Kind) {
	b.hostStep("setup", "setup", b.setupTime())
	for it := 0; it < b.cfg.NELM; it++ {
		b.scfIteration(kind, it, "scf")
	}
	b.hostStep("finalize", "finalize", 0.5)
}

// setupTime covers reading inputs, symmetry analysis, and wavefunction
// initialization.
func (b *builder) setupTime() float64 {
	return 1.0 + float64(b.cfg.NPLWV)*2e-8
}

// buildHSE emits a hybrid-functional job: damped-CG SCF where every
// H·ψ application also applies exact exchange — band-pair FFTs on the
// exchange grid plus a large accumulation GEMM. The GEMM dominates
// iteration time, which is why HSE shows the highest, flattest GPU
// power of all methods (Figs. 3, 9).
func (b *builder) buildHSE() {
	c := b.cfg
	d := c.Decomp
	bpr := d.BandsPerRank
	nocc := c.NElectrons / 2
	if nocc < 1 {
		nocc = 1
	}
	// Exchange operates on the wavefunction grid (half the linear
	// dimensions of the dense grid in each direction would give /8;
	// augmentation keeps the effective transform at about half the
	// dense point count).
	npwx := c.NPLWV / 2
	if npwx < 512 {
		npwx = 512
	}
	b.hostStep("setup", "setup", b.setupTime()*1.5)
	const nHx = 2 // exchange applications per band per iteration
	for it := 0; it < c.NELM; it++ {
		for kp := 0; kp < d.KPointsPerGroup; kp++ {
			pfx := fmt.Sprintf("it%02d.k%d", it, kp)
			for h := 0; h < nHx; h++ {
				hp := fmt.Sprintf("%s.x%d", pfx, h)
				// Pair FFTs: each local band against every occupied
				// band, forward and back, batched aggressively.
				b.gpuStep(hp+".exch-fft", "scf",
					exchangeFFTKernel(hp+".exch-fft", bpr*nocc, 2, npwx), memFFT)
				// Exchange accumulation/ACE-projection GEMM passes.
				b.gpuStep(hp+".exch-gemm", "scf",
					exchangeGemmKernel(hp+".exch-gemm", npwx, bpr, nocc), memGEMM)
			}
		}
		// The non-exchange part of the iteration (local H, subspace,
		// rotation, density).
		b.scfIteration(HSE, it, "scf")
	}
	b.hostStep("finalize", "finalize", 0.5)
}

// buildACFDTR emits an RPA job, the three-phase structure behind the
// paper's most dramatic power timeline (Figs. 3, 11):
//
//  1. a short DFT ground-state SCF (GPU, moderate power);
//  2. exact diagonalization to NBANDSEXACT bands — CPU-only in VASP
//     6.4.1 ("due to VASP 6.4.1 not yet porting the exact
//     diagonalization step to GPUs", §III-C): a long flat valley where
//     GPUs idle;
//  3. the RPA polarizability/frequency-integration sweep: near-peak
//     GEMM bursts separated by host/communication gaps — high peaks,
//     deep troughs.
func (b *builder) buildACFDTR() {
	c := b.cfg
	d := c.Decomp
	b.hostStep("setup", "setup", b.setupTime()*2)

	// Phase 1: ground-state DFT (blocked Davidson, ~14 iterations).
	scfIters := 14
	if c.NELM < scfIters {
		scfIters = c.NELM
	}
	for it := 0; it < scfIters; it++ {
		b.scfIteration(DFTBD, it, "scf")
	}

	// Phase 2: exact diagonalization on the host.
	b.hostStep("exact-diag.setup", "exact-diag", 2.0)
	b.cpuStep("exact-diag.eigensolve", "exact-diag", rpaEigensolveTask(c.NBandsExact))
	// Redistribute the full orbital set to the GPUs afterwards.
	b.commStep("exact-diag.scatter", "exact-diag", CommBroadcast,
		float64(c.NPW)*float64(min(c.NBandsExact, 4*c.NBands))*complexBytes, ScopeAll)

	// Phase 3: frequency sweep. Each frequency point: a host/transform
	// gap, an orbital-block broadcast, then the polarizability GEMM.
	const nFreq = 24
	for f := 0; f < nFreq; f++ {
		pfx := fmt.Sprintf("rpa.f%02d", f)
		b.hostStep(pfx+".transform", "rpa", 1.2+float64(c.NPLWV)*1.5e-9)
		b.commStep(pfx+".bcast", "rpa", CommBroadcast,
			float64(c.NPW)*float64(c.NBands)*complexBytes/4, ScopeAll)
		// χ₀ accumulation: the rank-local slab of a npw×npw update
		// contracted over occupied bands × imaginary-time points.
		b.gpuStep(pfx+".chi0-gemm", "rpa",
			chi0Kernel(pfx+".chi0-gemm", c.NPW, d.Ranks, c.NElectrons/2), memGEMM)
	}
	b.hostStep("finalize", "finalize", 1.0)
}

// rpaEigensolveTask sizes the CPU-only exact diagonalization. The
// efficiency is deliberately low: ScaLAPACK eigensolves on a single
// host socket reach a small fraction of peak, which is what makes the
// phase long enough to dominate the timeline's valley.
func rpaEigensolveTask(nBandsExact int) cpu.Task {
	t := cpu.EigensolveTask(nBandsExact)
	t.Efficiency = 0.18
	return t
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
