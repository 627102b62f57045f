package method

import (
	"fmt"
	"math"

	"vasppower/internal/hw/gpu"
)

// Work-accounting constants. Flop/byte formulas are the textbook
// counts for each algorithm; every constant here is a statement about
// the *amount* of algorithmic work. How efficiently a platform runs
// that work — occupancy caps, saturation sizes, SM activity — lives in
// the platform's gpu.EfficiencyModel, not here: the builders emit pure
// work descriptors and never touch an efficiency number.
const (
	// coarseGrain scales kernel work (flops AND bytes, so sustained
	// power is unchanged) to account for everything the skeleton
	// schedule leaves out of each SCF iteration: orthonormalization
	// sub-steps, preconditioner applications, augmentation-charge
	// handling, forces, symmetrization. Calibrated so benchmark
	// runtimes land at the minutes scale of the real runs.
	coarseGrain = 12.0

	// fftFlopFactor inflates the textbook 5·N·log2(N) FFT flop count
	// for twiddle arithmetic and transposes. Together with the
	// platform's FFT efficiency response it fixes the
	// compute/memory-critical clock ratio of FFT kernels (≈0.22),
	// which controls how much a deep power cap can slow them.
	fftFlopFactor = 1.2
	// fftBytesPasses is the effective number of full-array DRAM
	// passes of a batched 3-D complex FFT.
	fftBytesPasses = 2.6

	// exchGemmSweeps is the number of blocked accumulation passes the
	// exchange operator makes per pair batch (spin channels,
	// augmentation contributions, ACE projection) — the compute-bound
	// share of an HSE iteration.
	exchGemmSweeps = 55.0

	// gemmBytesFactor inflates the operand footprint of a blocked
	// complex GEMM for partial-tile re-reads.
	gemmBytesFactor = 1.2

	// eigFlopFactor is the flop prefactor of a dense complex
	// eigensolve (reduction + QR iteration + backtransform), flops ≈
	// eigFlopFactor·n³.
	eigFlopFactor = 25.0

	// Real-space nonlocal projection.
	nlRealPoints     = 450.0
	projectorsPerIon = 9.0

	// rpaTimePoints is the imaginary-time/frequency compression rank
	// of the low-scaling RPA polarizability accumulation.
	rpaTimePoints = 64.0

	// complexBytes is the size of one wavefunction coefficient.
	complexBytes = 16.0
)

// coarse applies the schedule coarse-graining factor: more total work
// at identical sustained rates (power unchanged, duration scaled).
// The launch sequence is replayed coarseGrain times, so the fixed
// launch latency scales identically.
func coarse(k gpu.Kernel) gpu.Kernel {
	k.Flops *= coarseGrain
	k.Bytes *= coarseGrain
	k.LatencyScale = coarseGrain
	return k
}

// fftBatchKernel models `count` complex 3-D FFTs on an nplwv-point
// grid performed on band blocks of nsim, with bpr bands resident per
// GPU. GPU fill — and with it SM activity, achieved bandwidth, and
// therefore power — is governed by points-in-flight (nsim·nplwv) and
// band availability (bpr): the mechanism by which small workloads
// (GaAsBi-64) draw far less power than large ones (PdO4) on identical
// hardware (Fig. 5). Both are size axes of the platform's FFT
// efficiency response.
func fftBatchKernel(count, nplwv, nsim, bpr int) gpu.Kernel {
	if count <= 0 || nplwv <= 0 || nsim <= 0 || bpr <= 0 {
		panic(fmt.Sprintf("method: fftBatchKernel(count=%d, nplwv=%d, nsim=%d, bpr=%d)", count, nplwv, nsim, bpr))
	}
	n := float64(nplwv)
	perFFTFlops := 5 * n * math.Log2(n) * fftFlopFactor
	perFFTBytes := complexBytes * n * fftBytesPasses
	return coarse(gpu.Kernel{
		Class:    gpu.ClassFFT,
		Flops:    float64(count) * perFFTFlops,
		Bytes:    float64(count) * perFFTBytes,
		Axes:     [3]float64{float64(nsim) * n, float64(bpr)},
		Launches: math.Ceil(float64(count) / float64(nsim)),
	})
}

// exchangeFFTKernel models the HSE pair transforms: `pairs` band
// pairs, each needing `transformsPerPair` FFTs on the npwx-point
// exchange grid. Pair parallelism is enormous (bands × occupied), so
// even small systems batch thousands of transforms — which is why
// hybrid calculations run hot on systems whose plain-DFT kernels
// would idle half the GPU (B.hR105_hse vs GaAsBi-64).
func exchangeFFTKernel(pairs, transformsPerPair, npwx int) gpu.Kernel {
	if pairs <= 0 || transformsPerPair <= 0 || npwx <= 0 {
		panic(fmt.Sprintf("method: exchangeFFTKernel(pairs=%d, transformsPerPair=%d, npwx=%d)", pairs, transformsPerPair, npwx))
	}
	n := float64(npwx)
	count := float64(pairs) * float64(transformsPerPair)
	return coarse(gpu.Kernel{
		Class:    gpu.ClassExchangeFFT,
		Flops:    count * 5 * n * math.Log2(n) * fftFlopFactor,
		Bytes:    count * complexBytes * n * fftBytesPasses,
		Axes:     [3]float64{float64(pairs) * n},
		Launches: math.Ceil(count / 512),
	})
}

// gemmKernel models a complex GEMM C(m×n) += A(m×k)·B(k×n). The
// platform's GEMM response saturates per dimension, so the descriptor
// carries m, n, k as its size axes.
func gemmKernel(m, n, k int) gpu.Kernel {
	if m <= 0 || n <= 0 || k <= 0 {
		panic(fmt.Sprintf("method: gemmKernel(m=%d, n=%d, k=%d)", m, n, k))
	}
	fm, fn, fk := float64(m), float64(n), float64(k)
	return coarse(gpu.Kernel{
		Class:    gpu.ClassGEMM,
		Flops:    8 * fm * fn * fk,
		Bytes:    complexBytes * (fm*fn + fm*fk + fn*fk) * gemmBytesFactor,
		Axes:     [3]float64{fm, fn, fk},
		Launches: 1,
	})
}

// exchangeGemmKernel models the exchange accumulation/ACE-projection
// GEMM passes of one H·ψ application (exchGemmSweeps blocked passes
// over spin and augmentation channels).
func exchangeGemmKernel(npwx, bpr, nocc int) gpu.Kernel {
	k := gemmKernel(npwx, bpr, nocc)
	k.Flops *= exchGemmSweeps
	k.Bytes *= exchGemmSweeps / 4 // blocked passes re-read operands from cache
	return k
}

// eigKernel models a dense complex eigensolve of an n×n subspace
// matrix on the GPU: heavily serialized panels, so the efficiency
// response saturates with the total flop count (axis 0).
func eigKernel(n int) gpu.Kernel {
	if n <= 0 {
		panic(fmt.Sprintf("method: eigKernel(n=%d)", n))
	}
	fn := float64(n)
	flops := eigFlopFactor * fn * fn * fn
	return coarse(gpu.Kernel{
		Class:    gpu.ClassEig,
		Flops:    flops,
		Bytes:    complexBytes * fn * fn * 12,
		Axes:     [3]float64{flops},
		Launches: math.Ceil(fn / 64),
	})
}

// nonlocalKernel models real-space nonlocal projection for all local
// bands in one H·ψ application set. Compute saturates with the total
// projection work (axis 0); bandwidth and SM activity with the
// resident band count (axis 1).
func nonlocalKernel(nions, bands, nApply int) gpu.Kernel {
	proj := projectorsPerIon * float64(nions)
	work := 8 * proj * float64(bands) * nlRealPoints * float64(nApply)
	return coarse(gpu.Kernel{
		Class:    gpu.ClassNonlocal,
		Flops:    work,
		Bytes:    work / 4,
		Axes:     [3]float64{work, float64(bands)},
		Launches: float64(nApply),
	})
}

// vdwKernel models the pairwise dispersion-correction kernel (DFT-D3
// style): O(nions²) with a small prefactor, latency-dominated for all
// benchmark sizes.
func vdwKernel(nions int) gpu.Kernel {
	fi := float64(nions)
	return coarse(gpu.Kernel{
		Class:    gpu.ClassVdW,
		Flops:    600 * fi * fi,
		Bytes:    64 * fi * fi,
		Axes:     [3]float64{600 * fi * fi},
		Launches: 40,
	})
}

// chi0Kernel models the low-scaling RPA polarizability accumulation
// for one frequency point: a rank-local slab of the npw×npw update
// contracted over occupied bands × imaginary-time points. Near-peak
// GEMM work — the power peaks of the ACFDTR timeline (Figs. 3, 11).
func chi0Kernel(npw, ranks, nocc int) gpu.Kernel {
	n := npw / ranks
	if n < 64 {
		n = 64
	}
	k := int(float64(nocc) * rpaTimePoints)
	return gemmKernel(npw, n, k)
}
