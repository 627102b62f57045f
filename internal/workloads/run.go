package workloads

import (
	"context"
	"fmt"

	"vasppower/internal/cluster"
	"vasppower/internal/dft/method"
	"vasppower/internal/dft/parallel"
	"vasppower/internal/dft/solver"
	"vasppower/internal/hw/gpu"
	"vasppower/internal/hw/node"
	"vasppower/internal/hw/platform"
	"vasppower/internal/interconnect"
	"vasppower/internal/par"
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
	// Workers bounds how many repeats run concurrently (0 = one per
	// available CPU, 1 = serial). Every repeat draws its noise from a
	// label-split of Seed and runs on its own identically-seeded node
	// allocation, so results are independent of the worker count.
	Workers int
	// OperandEntropy ∈ [0,1] is the operand entropy of the job's data
	// stream, stamped onto every GPU kernel of the schedule (0 = the
	// platform's reference calibration data). Same work, different
	// data, different watts — the entropy power axis.
	OperandEntropy float64
	// Sink, when non-nil, streams the selected repeat's traces after
	// the run. Like Workers, it never changes a result.
	Sink *telemetry.Sampler
}

// RunOutput is the result of a measurement run.
type RunOutput struct {
	// Nodes carry the full recorded traces of the selected repeat
	// (prelude + VASP). Each repeat runs on its own allocation of the
	// same simulated hardware, like resubmitting a job script with the
	// same node list.
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

// repeatRun is one repeat's self-contained execution: its own node
// allocation and traces, its solver result, and the window of every
// phase (prelude and "vasp") within those traces.
type repeatRun struct {
	nodes  []*node.Node
	result solver.Result
	phases map[string][2]float64
}

// phase is one window of a repeat: a schedule, or an idle window when
// sched is nil.
type phase struct {
	name  string
	sched *method.Schedule
}

// repeatNoise derives the run-to-run noise stream for repeat r.
// Repeat 0 keeps the historical "noise" label, so single-repeat runs
// (every cached measurement in the experiment harness) are
// bit-identical to the pre-parallel engine; later repeats get their
// own labeled streams instead of continuing repeat 0's, which is what
// makes repeats order-independent.
func repeatNoise(root *rng.Stream, r int) *rng.Stream {
	if r == 0 {
		return root.Split("noise")
	}
	return root.Split(fmt.Sprintf("noise/repeat%d", r))
}

// protocol is a measurement resolved down to what each repeat runs: a
// schedule on an allocation of the platform, the limits and prelude
// around it, and every repeat's noise stream — derived up front, in
// index order, from the one root, so execution order can never
// influence a draw. VASP runs, MILC runs and the sweep engine all
// execute through it.
type protocol struct {
	name     string
	platform platform.Platform
	nodes    int
	seed     uint64
	capW     float64 // 0 = the default TDP limit
	clockMHz float64 // 0 = unlocked
	prelude  bool
	sched    *method.Schedule
	decomp   parallel.Decomposition
	noises   []*rng.Stream
}

// newProtocol fills in the repeat count's noise streams.
func newProtocol(pr protocol, repeats int) protocol {
	root := rng.New(pr.seed)
	pr.noises = make([]*rng.Stream, max(repeats, 1))
	for r := range pr.noises {
		pr.noises[r] = repeatNoise(root, r)
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
		name:     spec.Bench.Name,
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
// every repeat — and the sweep engine's one allocation — sees the same
// simulated hardware.
func (pr *protocol) allocate() (*cluster.Cluster, []*node.Node, error) {
	pool := cluster.New(pr.platform, pr.nodes, pr.seed)
	nodes, err := pool.Allocate(pr.nodes)
	return pool, nodes, err
}

// job binds the protocol's schedule to nodes.
func (pr *protocol) job(nodes []*node.Node) solver.Job {
	return solver.Job{
		Name:     pr.name,
		Schedule: pr.sched,
		Nodes:    nodes,
		Decomp:   pr.decomp,
		Fabric:   interconnect.Slingshot(),
	}
}

// repeat executes repeat r on its own allocation: set the limits, run
// the prelude, then the schedule.
func (pr *protocol) repeat(r int) (repeatRun, error) {
	_, nodes, err := pr.allocate()
	if err != nil {
		return repeatRun{}, err
	}
	for _, n := range nodes {
		if err := n.SetGPULimits(pr.capW, pr.clockMHz); err != nil {
			return repeatRun{}, err
		}
	}
	// The burn-in phases are one-step schedules through the same
	// solver, drawing from the repeat's noise stream ahead of VASP.
	phases := []phase{{"vasp", pr.sched}}
	if pr.prelude {
		phases = []phase{
			{"dgemm", DGEMMSchedule(pr.platform.GPU, dgemmSeconds)},
			{"stream", StreamSchedule(pr.platform.GPU, streamSeconds)},
			{"idle", nil},
			phases[0],
		}
	}
	job := pr.job(nodes)
	job.Noise = pr.noises[r]
	run := repeatRun{nodes: nodes, phases: make(map[string][2]float64, len(phases))}
	for _, ph := range phases {
		start := nodes[0].TraceDuration()
		if ph.sched == nil {
			for _, n := range nodes {
				n.RecordIdle(idleSeconds)
			}
		} else {
			job.Schedule = ph.sched
			// VASP runs last, so its result is the one kept.
			if run.result, err = solver.Run(job); err != nil {
				return repeatRun{}, err
			}
		}
		run.phases[ph.name] = [2]float64{start, nodes[0].TraceDuration()}
	}
	return run, nil
}

// run executes every repeat through a bounded worker pool and
// assembles the protocol output: results land by repeat index (never
// completion order) and the minimum-runtime repeat is selected, per
// §III-B.
func (pr *protocol) run(workers int, sink *telemetry.Sampler) (RunOutput, error) {
	runs := make([]repeatRun, len(pr.noises))
	err := par.ForEach(context.Background(), par.Workers(workers), len(runs),
		func(_ context.Context, r int) error {
			run, err := pr.repeat(r)
			if err != nil {
				return err
			}
			runs[r] = run
			return nil
		})
	if err != nil {
		return RunOutput{}, err
	}
	var out RunOutput
	for r := range runs {
		out.Runtimes = append(out.Runtimes, runs[r].result.Runtime)
		if out.Runtimes[r] < out.Runtimes[out.Best] {
			out.Best = r
		}
	}
	best := runs[out.Best]
	out.Nodes = best.nodes
	out.BestResult = best.result
	out.PhaseWindows = best.phases
	out.VASPStart, out.VASPEnd = best.phases["vasp"][0], best.phases["vasp"][1]
	// Stream the selected repeat's traces into the run's telemetry
	// sampler, when it has one. The sampler never blocks — slow
	// subscribers shed load in their own rings — so this cannot slow a
	// run down.
	if sink != nil {
		sink.PublishRun(out.Nodes)
	}
	return out, nil
}

// Run executes the spec and returns traces plus the selected repeat.
func Run(spec RunSpec) (RunOutput, error) {
	pr, err := resolve(spec, nil)
	if err != nil {
		return RunOutput{}, err
	}
	return pr.run(spec.Workers, spec.Sink)
}

// DGEMMSchedule builds the burn-in DGEMM phase for the given GPU: a
// near-peak compute-bound kernel sized to run for about `seconds` at
// full clock. How close to peak it lands is the platform table's
// dgemm-peak response, not a property of the schedule.
func DGEMMSchedule(spec gpu.Spec, seconds float64) *method.Schedule {
	k := gpu.Kernel{
		Name:  "dgemm-burnin",
		Class: gpu.ClassDGEMMPeak,
		Flops: seconds * 0.95 * spec.PeakFlops,
		Bytes: seconds * 0.10 * spec.PeakMemBW,
	}
	return &method.Schedule{
		Name: "dgemm",
		Steps: []method.Step{{
			Label: "dgemm", Kind: method.StepGPU, GPU: k, MemActivity: 0.4, Phase: "dgemm",
		}},
	}
}

// StreamSchedule builds the burn-in STREAM (triad) phase for the
// given GPU: a bandwidth-bound kernel sized for about `seconds` at
// full bandwidth.
func StreamSchedule(spec gpu.Spec, seconds float64) *method.Schedule {
	k := gpu.Kernel{
		Name:  "stream-triad",
		Class: gpu.ClassStreamTriad,
		Flops: seconds * 0.04 * spec.PeakFlops,
		Bytes: seconds * 0.92 * spec.PeakMemBW,
	}
	return &method.Schedule{
		Name: "stream",
		Steps: []method.Step{{
			Label: "stream", Kind: method.StepGPU, GPU: k, MemActivity: 0.95, Phase: "stream",
		}},
	}
}

// stampEntropy writes the run's operand entropy into every GPU work
// descriptor of the schedule. Entropy is a property of the data the
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
	for i := range sched.Steps {
		if sched.Steps[i].Kind == method.StepGPU {
			sched.Steps[i].GPU.Entropy = entropy
		}
	}
	return nil
}
