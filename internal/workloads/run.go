package workloads

import (
	"fmt"

	"vasppower/internal/cluster"
	"vasppower/internal/dft/method"
	"vasppower/internal/dft/parallel"
	"vasppower/internal/dft/solver"
	"vasppower/internal/hw/gpu"
	"vasppower/internal/hw/node"
	"vasppower/internal/hw/platform"
	"vasppower/internal/interconnect"
	"vasppower/internal/rng"
	"vasppower/internal/telemetry"
)

// RunSpec describes one measurement run following the paper's
// protocol (§III-B).
type RunSpec struct {
	Bench Benchmark
	// Platform selects the hardware the run executes on; the zero
	// value resolves to the default platform.
	Platform platform.Platform
	Nodes    int
	// GPUPowerLimit applies a cap to every GPU before the run
	// (0 = the platform GPU's default TDP limit).
	GPUPowerLimit float64
	// GPUClockLimitMHz locks the maximum SM clock on every GPU
	// (0 = unlocked) — the DVFS alternative studied against power
	// capping in §V.
	GPUClockLimitMHz float64
	// Repeats runs VASP this many times and selects the
	// minimum-runtime repeat (the paper uses 5).
	Repeats int
	// Prelude runs DGEMM, STREAM, and an idle window before VASP in
	// the same job, as the paper's job scripts do (Fig. 1).
	Prelude bool
	// Seed drives node variability and run-to-run noise.
	Seed uint64
	// Workers is ignored: repeats run serially on one node
	// allocation. It stays declared for callers that still set it.
	Workers int
	// OperandEntropy ∈ [0,1] is the operand entropy of the job's data
	// stream, stamped onto every GPU kernel of the schedule (0 = the
	// platform's reference calibration data). Same work, different
	// data, different watts — the entropy power axis.
	OperandEntropy float64
	// Sink, when non-nil, streams the selected repeat's traces after
	// the run. It never changes a result.
	Sink *telemetry.Sampler
}

// RunOutput is the result of a measurement run.
type RunOutput struct {
	// Nodes carry the full recorded traces of the selected repeat
	// (prelude + VASP). Every repeat runs on the same simulated
	// hardware, like resubmitting a job script with the same node list.
	Nodes []*node.Node
	// Runtimes per repeat; Best indexes the minimum.
	Runtimes []float64
	Best     int
	// BestResult is the solver result of the selected repeat.
	BestResult solver.Result
	// VASPStart/VASPEnd delimit the selected repeat inside the traces.
	VASPStart, VASPEnd float64
	// PhaseWindows maps prelude phase names ("dgemm", "stream",
	// "idle") and "vasp" (the selected repeat) to their [start, end)
	// windows in trace time. Prelude keys are present only when
	// Prelude was requested.
	PhaseWindows map[string][2]float64
}

// Durations of the prelude phases, seconds.
const (
	dgemmSeconds  = 20.0
	streamSeconds = 20.0
	idleSeconds   = 10.0
)

// protocol is a measurement resolved down to what each repeat runs: a
// schedule on an allocation of the platform, the limits and prelude
// around it, and every repeat's initial noise-stream state — derived
// up front, in index order, from the one root, and kept by value, so
// every replay of a repeat sees the same draws. VASP runs, MILC runs
// and the sweep engine all execute through it.
type protocol struct {
	platform platform.Platform
	nodes    int
	seed     uint64
	capW     float64 // 0 = the default TDP limit
	clockMHz float64 // 0 = unlocked
	prelude  bool
	sched    *method.Schedule
	decomp   parallel.Decomposition
	noises   []rng.Stream
}

// newProtocol fills in the repeat count's noise streams. Repeat 0
// keeps the historical "noise" label, so single-repeat runs (every
// cached measurement in the experiment harness) are bit-identical to
// the pre-parallel engine; later repeats get their own labeled streams
// instead of continuing repeat 0's, which keeps repeats independent.
func newProtocol(pr protocol, repeats int) protocol {
	root := rng.New(pr.seed)
	pr.noises = make([]rng.Stream, max(repeats, 1))
	for r := range pr.noises {
		label := "noise"
		if r > 0 {
			label = fmt.Sprintf("noise/repeat%d", r)
		}
		pr.noises[r] = *root.Split(label)
	}
	return pr
}

// resolve validates a VASP spec and builds its schedule, into a's step
// storage when a is not nil. Run and NewSweep both resolve through it,
// so they reject a spec with the same error.
func resolve(spec RunSpec, a *Arena) (protocol, error) {
	if err := spec.Bench.Validate(); err != nil {
		return protocol{}, err
	}
	if spec.Nodes <= 0 {
		return protocol{}, fmt.Errorf("workloads: node count %d", spec.Nodes)
	}
	spec.Platform = platform.OrDefault(spec.Platform)
	cfg, err := spec.Bench.Config(spec.Platform, spec.Nodes)
	if err != nil {
		return protocol{}, err
	}
	sched, err := a.build(cfg)
	if err != nil {
		return protocol{}, err
	}
	if err := stampEntropy(sched, spec.OperandEntropy); err != nil {
		return protocol{}, err
	}
	return newProtocol(protocol{
		platform: spec.Platform,
		nodes:    spec.Nodes,
		seed:     spec.Seed,
		capW:     spec.GPUPowerLimit,
		clockMHz: spec.GPUClockLimitMHz,
		prelude:  spec.Prelude,
		sched:    sched,
		decomp:   cfg.Decomp,
	}, spec.Repeats), nil
}

// allocate takes the protocol's nodes from a cluster pool: node
// identity (and with it the manufacturing variability) is owned by the
// cluster, exactly as the batch system hands out nodes on the real
// machine. Every call allocates from an identically-seeded pool, so
// every allocation of a spec sees the same simulated hardware.
func (pr *protocol) allocate() (*cluster.Cluster, []*node.Node, error) {
	pool := cluster.New(pr.platform, pr.nodes, pr.seed)
	nodes, err := pool.Allocate(pr.nodes)
	return pool, nodes, err
}

// job binds the protocol's schedule to nodes.
func (pr *protocol) job(nodes []*node.Node) solver.Job {
	return solver.Job{
		Schedule: pr.sched,
		Nodes:    nodes,
		Decomp:   pr.decomp,
		Fabric:   interconnect.Slingshot(),
	}
}

// runOnce measures the protocol at its own cap and clock as the one
// point of a sweep. The caller keeps the nodes and their traces: the
// sweep is never closed, holds no arena storage and is not counted in
// ActiveSweeps.
func (pr *protocol) runOnce(sink *telemetry.Sampler) (RunOutput, error) {
	s, err := newSweep(nil, pr, sink)
	if err != nil {
		return RunOutput{}, err
	}
	return s.run(pr.capW, pr.clockMHz)
}

// Run executes the spec and returns traces plus the selected repeat.
func Run(spec RunSpec) (RunOutput, error) {
	pr, err := resolve(spec, nil)
	if err != nil {
		return RunOutput{}, err
	}
	return pr.runOnce(spec.Sink)
}

// DGEMMSchedule builds the burn-in DGEMM phase for the given GPU: a
// near-peak compute-bound kernel sized to run for about `seconds` at
// full clock. How close to peak it lands is the platform table's
// dgemm-peak response, not a property of the schedule.
func DGEMMSchedule(spec gpu.Spec, seconds float64) *method.Schedule {
	return &method.Schedule{
		Kernels: []gpu.Kernel{{
			Class: gpu.ClassDGEMMPeak,
			Flops: seconds * 0.95 * spec.PeakFlops,
			Bytes: seconds * 0.10 * spec.PeakMemBW,
		}},
		Steps: []method.Step{{Kind: method.StepGPU, Kernel: 0, MemActivity: 0.4}},
	}
}

// StreamSchedule builds the burn-in STREAM (triad) phase for the
// given GPU: a bandwidth-bound kernel sized for about `seconds` at
// full bandwidth.
func StreamSchedule(spec gpu.Spec, seconds float64) *method.Schedule {
	return &method.Schedule{
		Kernels: []gpu.Kernel{{
			Class: gpu.ClassStreamTriad,
			Flops: seconds * 0.04 * spec.PeakFlops,
			Bytes: seconds * 0.92 * spec.PeakMemBW,
		}},
		Steps: []method.Step{{Kind: method.StepGPU, Kernel: 0, MemActivity: 0.95}},
	}
}

// stampEntropy writes the run's operand entropy into every work
// descriptor of the schedule's table. Entropy is a property of the data the
// job streams through the kernels — the same schedule on low-entropy
// inputs draws measurably less dynamic power (the platform table's
// entropy response decides how much). Zero leaves the descriptors at
// the reference calibration.
func stampEntropy(sched *method.Schedule, entropy float64) error {
	if entropy == 0 {
		return nil
	}
	if entropy < 0 || entropy > 1 {
		return fmt.Errorf("workloads: operand entropy %v out of [0,1]", entropy)
	}
	for i := range sched.Kernels {
		sched.Kernels[i].Entropy = entropy
	}
	return nil
}
