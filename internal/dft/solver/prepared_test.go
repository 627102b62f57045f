package solver_test

import (
	"fmt"
	"testing"

	"vasppower/internal/dft/method"
	"vasppower/internal/dft/parallel"
	"vasppower/internal/dft/solver"
	"vasppower/internal/dft/solver/solveroracle"
	"vasppower/internal/hw/gpu"
	"vasppower/internal/hw/node"
	"vasppower/internal/hw/platform"
	"vasppower/internal/interconnect"
	"vasppower/internal/rng"
	"vasppower/internal/timeseries"
	"vasppower/internal/workloads"
)

// tracesEqual compares two traces segment-for-segment with exact
// float equality — the differential contract is bit-identity, not
// tolerance.
func tracesEqual(t *testing.T, label string, a, b *timeseries.Trace) {
	t.Helper()
	sa, sb := a.Segments(), b.Segments()
	if len(sa) != len(sb) {
		t.Fatalf("%s: %d segments vs %d", label, len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("%s: segment %d differs: %+v vs %+v", label, i, sa[i], sb[i])
		}
	}
}

// nodesEqual asserts every component trace of each node pair is
// bit-identical.
func nodesEqual(t *testing.T, a, b []*node.Node) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("node counts differ: %d vs %d", len(a), len(b))
	}
	for ni := range a {
		tracesEqual(t, "cpu", a[ni].CPUTrace(), b[ni].CPUTrace())
		tracesEqual(t, "mem", a[ni].MemTrace(), b[ni].MemTrace())
		for gi := 0; gi < a[ni].NumGPUs(); gi++ {
			tracesEqual(t, "gpu", a[ni].GPUTrace(gi), b[ni].GPUTrace(gi))
			tracesEqual(t, "gpumem", a[ni].GPUMemTrace(gi), b[ni].GPUMemTrace(gi))
		}
		tracesEqual(t, "total", a[ni].TotalTrace(), b[ni].TotalTrace())
	}
}

func resultsEqual(t *testing.T, oracle, prep solver.Result) {
	t.Helper()
	if oracle.Runtime != prep.Runtime {
		t.Fatalf("runtime %v vs oracle %v", prep.Runtime, oracle.Runtime)
	}
	if oracle.EnergyJ != prep.EnergyJ {
		t.Fatalf("energy %v vs oracle %v", prep.EnergyJ, oracle.EnergyJ)
	}
	if oracle.Steps != prep.Steps {
		t.Fatalf("steps %d vs oracle %d", prep.Steps, oracle.Steps)
	}
	if len(oracle.PhaseDurations) != len(prep.PhaseDurations) {
		t.Fatalf("phases %v vs oracle %v", prep.PhaseDurations, oracle.PhaseDurations)
	}
	for k, v := range oracle.PhaseDurations {
		if prep.PhaseDurations[k] != v {
			t.Fatalf("phase %q: %v vs oracle %v", k, prep.PhaseDurations[k], v)
		}
	}
}

// runPrepared is one prepared run with its energy settled as Run and
// the sweep engine settle it.
func runPrepared(prep *solver.Prepared, nodes []*node.Node, noise *rng.Stream) solver.Result {
	start := nodes[0].TraceDuration()
	res := prep.RunNoEnergy(noise)
	res.EnergyJ = solver.NodeEnergy(nodes, start)
	return res
}

// TestPreparedMatchesRunExactly pins the prepared engine to the oracle
// across methods, node counts, device variability, and noise: every
// float of every trace must be bit-identical — through a Prepared
// directly and through Run, which every measurement goes through.
func TestPreparedMatchesRunExactly(t *testing.T) {
	for _, kind := range []method.Kind{method.DFTRMM, method.DFTBDRMM, method.HSE, method.ACFDTR} {
		for _, nodes := range []int{1, 2} {
			for _, noisy := range []bool{false, true} {
				oracleJob := testJob(t, kind, nodes, true)
				prepJob := testJob(t, kind, nodes, true)
				if noisy {
					oracleJob.Noise = rng.New(42)
				}
				want, err := solveroracle.Run(oracleJob)
				if err != nil {
					t.Fatal(err)
				}
				prep, err := solver.Prepare(prepJob)
				if err != nil {
					t.Fatal(err)
				}
				var noise *rng.Stream
				if noisy {
					noise = rng.New(42)
				}
				got := runPrepared(prep, prepJob.Nodes, noise)
				resultsEqual(t, want, got)
				nodesEqual(t, oracleJob.Nodes, prepJob.Nodes)

				runJob := testJob(t, kind, nodes, true)
				if noisy {
					runJob.Noise = rng.New(42)
				}
				got, err = solver.Run(runJob)
				if err != nil {
					t.Fatal(err)
				}
				resultsEqual(t, want, got)
				nodesEqual(t, oracleJob.Nodes, runJob.Nodes)
			}
		}
	}
}

// TestPreparedSweepMatchesOracle reuses one Prepared across cap and
// clock points — the incremental engine's whole reason to exist — and
// checks each point against a fresh full oracle run.
func TestPreparedSweepMatchesOracle(t *testing.T) {
	prepJob := testJob(t, method.HSE, 2, true)
	prep, err := solver.Prepare(prepJob)
	if err != nil {
		t.Fatal(err)
	}
	points := []struct {
		capW float64
		mhz  float64
	}{
		{0, 0}, {400, 0}, {250, 0}, {0, 0}, {0, 1200}, {0, 900}, {300, 0},
	}
	for _, pt := range points {
		oracleJob := testJob(t, method.HSE, 2, true)
		for _, n := range oracleJob.Nodes {
			if pt.capW > 0 {
				if err := n.SetGPUPowerLimits(pt.capW); err != nil {
					t.Fatal(err)
				}
			}
			if pt.mhz > 0 {
				if err := n.SetGPUClockLimits(pt.mhz); err != nil {
					t.Fatal(err)
				}
			}
		}
		oracleJob.Noise = rng.New(7)
		want, err := solveroracle.Run(oracleJob)
		if err != nil {
			t.Fatal(err)
		}

		for _, n := range prepJob.Nodes {
			n.ResetTracesReuse()
		}
		if err := prep.SetGPULimits(pt.capW, pt.mhz); err != nil {
			t.Fatal(err)
		}
		got := runPrepared(prep, prepJob.Nodes, rng.New(7))
		resultsEqual(t, want, got)
		nodesEqual(t, oracleJob.Nodes, prepJob.Nodes)
	}
}

// TestPreparedPhaseMapReused documents the scratch contract: the next
// Run overwrites the previous Result's PhaseDurations.
func TestPreparedPhaseMapReused(t *testing.T) {
	job := testJob(t, method.DFTRMM, 1, false)
	prep, err := solver.Prepare(job)
	if err != nil {
		t.Fatal(err)
	}
	r1 := prep.RunNoEnergy(nil)
	m1 := r1.PhaseDurations
	for _, n := range job.Nodes {
		n.ResetTracesReuse()
	}
	r2 := prep.RunNoEnergy(nil)
	if &m1 == &r2.PhaseDurations {
	} // same map is expected; the assertion is aliasing, below
	m1["sentinel"] = 1
	if r2.PhaseDurations["sentinel"] != 1 {
		t.Fatal("PhaseDurations no longer aliases the prepared scratch map (update the doc contract)")
	}
}

// TestPreparedSetLimitErrors mirrors the per-device range checks.
func TestPreparedSetLimitErrors(t *testing.T) {
	prep, err := solver.Prepare(testJob(t, method.DFTRMM, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := prep.SetGPULimits(1, 0); err == nil {
		t.Fatal("1 W cap accepted")
	}
	if err := prep.SetGPULimits(0, 1); err == nil {
		t.Fatal("1 MHz clock accepted")
	}
	if err := prep.SetGPULimits(0, 0); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedValidation matches the oracle's construction errors,
// message for message, and refuses jobs whose devices do not share
// one spec (one CapSolver per descriptor serves every device).
func TestPreparedValidation(t *testing.T) {
	job := testJob(t, method.DFTRMM, 1, false)
	d, err := parallel.Decompose(640, 1, 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*solver.Job){
		func(j *solver.Job) { j.Schedule = &method.Schedule{} },
		func(j *solver.Job) { j.Nodes = nil },
		func(j *solver.Job) { j.Decomp = d },
	} {
		bad := job
		mutate(&bad)
		_, errPrep := solver.Prepare(bad)
		_, errOracle := solveroracle.Run(bad)
		if errPrep == nil || errOracle == nil {
			t.Fatalf("invalid job accepted: prepare %v, oracle %v", errPrep, errOracle)
		}
		if errPrep.Error() != errOracle.Error() {
			t.Fatalf("prepare error %q, oracle %q", errPrep, errOracle)
		}
	}

	mixed := testJob(t, method.DFTRMM, 2, false)
	mixed.Nodes[1] = node.New("n80", platform.A10080GB500W(), nil)
	if _, err := solver.Prepare(mixed); err == nil {
		t.Fatal("job mixing GPU specs accepted")
	}
}

// TestPreparedRunSteadyStateAllocs is the arena claim: after the first
// point, a solve allocates nothing.
func TestPreparedRunSteadyStateAllocs(t *testing.T) {
	job := testJob(t, method.HSE, 1, true)
	prep, err := solver.Prepare(job)
	if err != nil {
		t.Fatal(err)
	}
	reset := func() {
		for _, n := range job.Nodes {
			n.ResetTracesReuse()
		}
	}
	noise := rng.New(3)
	init := *noise
	// Warm the arena: first run grows trace and scratch capacity.
	runPrepared(prep, job.Nodes, noise)
	allocs := testing.AllocsPerRun(10, func() {
		reset()
		*noise = init
		runPrepared(prep, job.Nodes, noise)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Run allocates %v objects/op, want 0", allocs)
	}
}

// distinctDescriptors counts a schedule's GPU work descriptors: its
// GPU steps' kernels with their labels cleared.
func distinctDescriptors(sched *method.Schedule) int {
	seen := map[gpu.Kernel]bool{}
	for _, st := range sched.Steps {
		if st.Kind == method.StepGPU {
			k := st.GPU
			k.Name = ""
			seen[k] = true
		}
	}
	return len(seen)
}

// TestPrepareOneCapSolverPerDescriptor: a Table I schedule repeats a
// handful of work descriptors over thousands of GPU steps, and Prepare
// builds exactly one cap solver per descriptor.
func TestPrepareOneCapSolverPerDescriptor(t *testing.T) {
	b, ok := workloads.ByName("GaAsBi-64")
	if !ok {
		t.Fatal("GaAsBi-64 not in Table I")
	}
	p := platform.Default()
	for _, nodes := range []int{1, 2, 4} {
		cfg, err := b.Config(p, nodes)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := method.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ns := make([]*node.Node, nodes)
		for i := range ns {
			ns[i] = node.New(fmt.Sprintf("n%d", i), p, nil)
		}
		prep, err := solver.Prepare(solver.Job{Schedule: sched, Nodes: ns, Decomp: cfg.Decomp, Fabric: interconnect.Slingshot()})
		if err != nil {
			t.Fatal(err)
		}
		want := distinctDescriptors(sched)
		if want != 8 {
			t.Fatalf("nodes=%d: GaAsBi-64 has %d distinct descriptors, want 8", nodes, want)
		}
		if got := prep.CapSolvers(); got != want {
			t.Fatalf("nodes=%d: Prepare built %d cap solvers for %d distinct descriptors", nodes, got, want)
		}
	}
}

// TestPrepareIgnoresKernelNames: a kernel's Name is a label, not work.
// Giving every GPU step a unique name must leave the descriptor table,
// the Result and every trace bit-identical, uncapped and capped.
func TestPrepareIgnoresKernelNames(t *testing.T) {
	plain := testJob(t, method.HSE, 2, true)
	named := testJob(t, method.HSE, 2, true)
	for si := range named.Schedule.Steps {
		if st := &named.Schedule.Steps[si]; st.Kind == method.StepGPU {
			st.GPU.Name = fmt.Sprintf("step%d", si)
		}
	}
	prepPlain, err := solver.Prepare(plain)
	if err != nil {
		t.Fatal(err)
	}
	prepNamed, err := solver.Prepare(named)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := prepPlain.CapSolvers(), prepNamed.CapSolvers(); a != b {
		t.Fatalf("renaming kernels changed the descriptor count: %d vs %d", a, b)
	}
	for _, capW := range []float64{0, 250} {
		for _, j := range []struct {
			job  solver.Job
			prep *solver.Prepared
		}{{plain, prepPlain}, {named, prepNamed}} {
			for _, n := range j.job.Nodes {
				n.ResetTracesReuse()
			}
			if err := j.prep.SetGPULimits(capW, 0); err != nil {
				t.Fatal(err)
			}
		}
		want := runPrepared(prepPlain, plain.Nodes, rng.New(9))
		got := runPrepared(prepNamed, named.Nodes, rng.New(9))
		resultsEqual(t, want, got)
		nodesEqual(t, plain.Nodes, named.Nodes)
	}
}

// TestPrepareKeysEveryKernelField: two steps whose kernels differ in
// any one work field are different descriptors. Every other occurrence
// of each descriptor gets one field perturbed, so a descriptor key
// that ignored the field would hand half the steps the wrong cap
// solver; the prepared run must still match the oracle bit for bit,
// capped and uncapped.
func TestPrepareKeysEveryKernelField(t *testing.T) {
	for _, field := range []struct {
		name    string
		perturb func(k *gpu.Kernel)
	}{
		{"Class", func(k *gpu.Kernel) { k.Class = gpu.ClassStencil }},
		{"Flops", func(k *gpu.Kernel) { k.Flops *= 1.5 }},
		{"Bytes", func(k *gpu.Kernel) { k.Bytes *= 1.5 }},
		{"Axes", func(k *gpu.Kernel) { k.Axes[0] = k.Axes[0]*0.5 + 1 }},
		{"Launches", func(k *gpu.Kernel) { k.Launches += 3 }},
		{"LatencyScale", func(k *gpu.Kernel) { k.LatencyScale = 2 }},
		{"Entropy", func(k *gpu.Kernel) { k.Entropy = 0.9 }},
	} {
		t.Run(field.name, func(t *testing.T) {
			perturbed := func() solver.Job {
				job := testJob(t, method.HSE, 1, true)
				seen := map[gpu.Kernel]int{}
				for si := range job.Schedule.Steps {
					if st := &job.Schedule.Steps[si]; st.Kind == method.StepGPU {
						k := st.GPU
						k.Name = ""
						if seen[k]%2 == 1 {
							field.perturb(&st.GPU)
						}
						seen[k]++
					}
				}
				return job
			}
			prepJob := perturbed()
			prep, err := solver.Prepare(prepJob)
			if err != nil {
				t.Fatal(err)
			}
			for _, capW := range []float64{0, 250} {
				oracleJob := perturbed()
				for _, n := range oracleJob.Nodes {
					if capW > 0 {
						if err := n.SetGPUPowerLimits(capW); err != nil {
							t.Fatal(err)
						}
					}
				}
				want, err := solveroracle.Run(oracleJob)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range prepJob.Nodes {
					n.ResetTracesReuse()
				}
				if err := prep.SetGPULimits(capW, 0); err != nil {
					t.Fatal(err)
				}
				got := runPrepared(prep, prepJob.Nodes, nil)
				resultsEqual(t, want, got)
				nodesEqual(t, oracleJob.Nodes, prepJob.Nodes)
			}
		})
	}
}
