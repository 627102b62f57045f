// Package vasppower is a simulation-based reproduction of
// "Understanding VASP Power Profiles on NVIDIA A100 GPUs" (Zhao,
// Rrapaj, Austin, Wright; SC 2024): a Perlmutter-like GPU-node power
// simulator, a VASP-like plane-wave DFT workload model, an LDMS/OMNI-
// style telemetry pipeline, nvidia-smi-style power capping, the
// paper's statistical toolkit (KDE, high power mode, FWHM), and a
// power-aware batch scheduler built on the findings.
//
// This package is the public façade: benchmark definitions (Table I),
// the measurement protocol (five repeats, DGEMM/STREAM prelude,
// min-runtime selection), power profiling, cap-response studies, and
// scheduler simulation. The per-figure experiment runners live in
// internal/experiments and are driven by cmd/powerstudy.
//
// Quick start:
//
//	b, _ := vasppower.BenchmarkByName("Si256_hse")
//	profile, err := vasppower.Measure(vasppower.MeasureSpec{Bench: b, Repeats: 5, Seed: 42})
//	mode, _ := profile.NodeTotal.HighMode() // the high power mode per node
//
// Measurements run on the default platform (the paper's Perlmutter
// A100 nodes) unless MeasureSpec.Platform selects another registered
// platform; see Platforms and PlatformByName.
package vasppower

import (
	"vasppower/internal/core"
	"vasppower/internal/dft/method"
	"vasppower/internal/hw/gpu"
	"vasppower/internal/hw/platform"
	"vasppower/internal/predict"
	"vasppower/internal/sched"
	"vasppower/internal/stats"
	"vasppower/internal/timeseries"
	"vasppower/internal/workloads"
)

// Benchmark is a fully-specified VASP workload (Table I entries or
// synthetic silicon supercells).
type Benchmark = workloads.Benchmark

// RunSpec configures one measurement run (§III-B protocol).
type RunSpec = workloads.RunSpec

// Platform is a fully-described hardware platform: GPU and CPU specs,
// node power parameters, GPUs per node, and variability. The zero
// value means "the default platform" wherever a Platform is accepted.
type Platform = platform.Platform

// MeasureSpec configures one Measure or MeasureCapResponse call.
type MeasureSpec = core.MeasureSpec

// RunOutput is a measurement run's traces and selected repeat.
type RunOutput = workloads.RunOutput

// JobProfile is the per-component power characterization of one run.
type JobProfile = core.JobProfile

// Profile characterizes one power signal (distribution + modes).
type Profile = core.Profile

// CapResponse is a benchmark's performance/power response to GPU
// power caps (Figs. 10 and 12).
type CapResponse = core.CapResponse

// CapPoint is one cap measurement within a CapResponse.
type CapPoint = core.CapPoint

// Mode is a local maximum of a power-distribution density estimate;
// the paper's "high power mode" is the Mode at the highest power.
type Mode = stats.Mode

// Series is a sampled power time series.
type Series = timeseries.Series

// Method identifies a VASP computation type (ALGO/LHFCALC/IVDW
// combination).
type Method = method.Kind

// The seven methods of the paper's §IV-D study.
const (
	MethodDFTRMM   = method.DFTRMM   // RMM-DIIS (ALGO=VeryFast)
	MethodDFTBD    = method.DFTBD    // blocked Davidson (ALGO=Normal)
	MethodDFTBDRMM = method.DFTBDRMM // Davidson+RMM (ALGO=Fast)
	MethodDFTCG    = method.DFTCG    // damped CG (ALGO=Damped/All)
	MethodVDW      = method.VDW      // van der Waals corrections
	MethodHSE      = method.HSE      // hybrid functional
	MethodACFDTR   = method.ACFDTR   // RPA correlation energy
)

// DefaultSamplingInterval is the effective telemetry interval (2 s).
const DefaultSamplingInterval = core.DefaultSamplingInterval

// Benchmarks returns the paper's seven-benchmark suite (Table I).
func Benchmarks() []Benchmark { return workloads.TableI() }

// BenchmarkByName looks up a Table I benchmark.
func BenchmarkByName(name string) (Benchmark, bool) { return workloads.ByName(name) }

// BenchmarkNames lists the suite in Table I order.
func BenchmarkNames() []string { return workloads.Names() }

// SiliconBenchmark builds a synthetic n-atom silicon supercell
// benchmark with the given method (the §IV experiment family).
func SiliconBenchmark(nAtoms int, m Method) (Benchmark, error) {
	return workloads.SiliconBenchmark(nAtoms, m)
}

// Run executes a measurement run following the paper's protocol and
// returns the raw traces plus the selected repeat.
func Run(spec RunSpec) (RunOutput, error) { return workloads.Run(spec) }

// Measure runs a benchmark with the paper's protocol and returns its
// power profile at the standard 2 s telemetry interval. Zero spec
// fields take protocol defaults (default platform, 1 node, 1 repeat,
// uncapped); the repeats run serially.
func Measure(spec MeasureSpec) (JobProfile, error) { return core.Measure(spec) }

// MeasureCapResponse measures a benchmark under each GPU power cap
// (spec.CapW is ignored; caps drives the sweep). The uncapped baseline
// and every binding cap run serially on one sweep, which resolves the
// schedule once; each point is bit-identical to a Measure at that cap.
func MeasureCapResponse(spec MeasureSpec, caps []float64) (CapResponse, error) {
	return core.MeasureCapResponse(spec, caps)
}

// Efficiency tables: each platform owns an EfficiencyModel that maps
// pure work descriptors (kernel class, flops, bytes, size axes,
// operand entropy) to execution profiles — achieved compute/bandwidth
// fractions, SM activity, launch latency, and an entropy-dependent
// dynamic-power factor. The table is the platform's calibration
// surface; MeasureSpec.Entropy stamps a run's kernels with an operand
// entropy in [0,1] (0 = the table's reference data, identical power).
type (
	// EfficiencyModel is a platform's per-kernel-class efficiency
	// table.
	EfficiencyModel = gpu.EfficiencyModel
	// KernelClass names one efficiency-table entry (e.g. "gemm",
	// "fft").
	KernelClass = gpu.KernelClass
	// ExecProfile is a resolved kernel execution profile.
	ExecProfile = gpu.ExecProfile
)

// DefaultEfficiency returns a copy of the calibrated perlmutter-a100
// efficiency table (safe to edit and register on a custom Platform).
func DefaultEfficiency() *EfficiencyModel { return gpu.DefaultEfficiency() }

// Platforms lists the registered platform names in sorted order.
func Platforms() []string { return platform.List() }

// PlatformByName looks up a registered platform; the error lists the
// registered names.
func PlatformByName(name string) (Platform, error) { return platform.Get(name) }

// DefaultPlatform returns the paper's platform, perlmutter-a100.
func DefaultPlatform() Platform { return platform.Default() }

// HighPowerMode computes the paper's headline metric for a sample of
// power readings: the mode at the highest power, via a Gaussian KDE.
func HighPowerMode(watts []float64) (Mode, bool) {
	return stats.HighPowerModeOf(watts)
}

// ProfileSeries characterizes a sampled power series (distribution
// summary, modes, high power mode, FWHM).
func ProfileSeries(s Series) Profile { return core.ProfileSeries(s) }

// Scheduler re-exports: the §VI power-aware scheduling simulation.
type (
	// SchedulerPolicy decides per-class GPU caps and power
	// reservations.
	SchedulerPolicy = sched.Policy
	// SchedulerJob is one queued batch job.
	SchedulerJob = sched.Job
	// SchedulerResult summarizes one policy run: the aggregates as
	// fields, and the per-job rows built on demand by its Outcomes
	// method (a simulation keeps 24 bytes a job, not a row).
	SchedulerResult = sched.Result
	// SchedulerConfig configures the scheduler simulation.
	SchedulerConfig = sched.SimConfig
	// SchedulerJobStream is the job table SimulateSchedulerStream
	// reads: jobs in arrival order as 16-byte records, with their ID
	// order.
	// It keeps the name under which the benchmark harness uses it.
	SchedulerJobStream = *sched.SyntheticMix
	// SchedulerBudgetPhase is one step of a time-varying facility
	// power envelope (SchedulerConfig.BudgetSchedule).
	SchedulerBudgetPhase = sched.BudgetPhase
)

// Scheduler policies for the ablation.
var (
	// PolicyNoCap runs jobs at default limits, reserving the default
	// platform's node TDP.
	PolicyNoCap SchedulerPolicy = sched.NoCap{NodeTDP: platform.Default().Node.TDP}
	// PolicyUniform200 caps every GPU at 50% TDP.
	PolicyUniform200 SchedulerPolicy = sched.UniformCap{Watts: 200, HostWatts: 350}
	// PolicyProfileAware applies the paper's per-class caps.
	PolicyProfileAware SchedulerPolicy = sched.DefaultProfileAware()
)

// NewSchedulerCatalog creates a profile catalog for scheduler
// simulations on the default platform (profiles are measured once and
// cached).
func NewSchedulerCatalog(seed uint64) *sched.Catalog { return sched.NewCatalog(seed) }

// NewSchedulerCatalogOn is NewSchedulerCatalog measuring on the given
// platform (zero = default).
func NewSchedulerCatalogOn(p Platform, seed uint64) *sched.Catalog {
	return sched.NewCatalogOn(p, seed)
}

// SimulateScheduler runs a job mix through the power-aware scheduler.
func SimulateScheduler(cfg SchedulerConfig, jobs []SchedulerJob) (SchedulerResult, error) {
	return sched.Simulate(cfg, jobs)
}

// SimulateSchedulerStream runs a job table through the power-aware
// scheduler — the facility-scale entry point (100k-job mixes without a
// []SchedulerJob). It keeps the name under which the benchmark harness
// calls it.
func SimulateSchedulerStream(cfg SchedulerConfig, src SchedulerJobStream) (SchedulerResult, error) {
	return sched.SimulateMix(cfg, src)
}

// SyntheticJobMix builds a reproducible VASP job mix for scheduler
// studies.
func SyntheticJobMix(n int, meanInterArrival float64, seed uint64) []SchedulerJob {
	return sched.SyntheticJobMix(n, meanInterArrival, seed)
}

// SyntheticJobStream is SyntheticJobMix as a job table: the same jobs
// in the same order, 16 bytes a job rather than a []SchedulerJob. It
// keeps the name under which the benchmark harness calls it.
func SyntheticJobStream(n int, meanInterArrival float64, seed uint64) SchedulerJobStream {
	return sched.NewSyntheticMix(n, meanInterArrival, seed)
}

// Power prediction (§VI-C): estimate a job's high power mode from
// scheduler-visible inputs before it runs.
type (
	// PowerPredictor maps INCAR-visible job features to node power.
	PowerPredictor = predict.Model
	// PredictorSample is one (job, measured mode) training point.
	PredictorSample = predict.Sample
)

// FitPowerPredictor trains per-class ridge models on measured
// profiles (lambda is the ridge penalty; 1e-3 is a good default).
func FitPowerPredictor(samples []PredictorSample, lambda float64) (*PowerPredictor, error) {
	return predict.Fit(samples, lambda)
}

// PredictorFeatures exposes the feature extraction used by the
// predictor (workload class aside): log NPLWV, log bands/GPU,
// log electrons, log nodes, log k-points.
func PredictorFeatures(b Benchmark, nodes int) ([]float64, error) {
	return predict.Features(b, nodes)
}

// Energy/performance trade-off metrics (§VII): energy-delay product
// and E·T² for weighing a cap's savings against its slowdown.
type Tradeoff = core.Tradeoff

// TradeoffOf extracts the (energy, runtime) point of a profile.
func TradeoffOf(jp JobProfile) Tradeoff { return core.TradeoffOf(jp) }

// BestCapByEDP returns the index of the energy-delay-optimal point in
// a cap response.
func BestCapByEDP(cr CapResponse) (int, error) { return core.BestCapByEDP(cr) }
