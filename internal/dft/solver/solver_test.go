package solver_test

import (
	"math"
	"testing"

	"vasppower/internal/dft/method"
	"vasppower/internal/dft/parallel"
	"vasppower/internal/dft/solver"
	"vasppower/internal/hw/node"
	"vasppower/internal/hw/platform"
	"vasppower/internal/interconnect"
	"vasppower/internal/rng"
)

func testJob(t *testing.T, kind method.Kind, nodes int, seedNodes bool) solver.Job {
	t.Helper()
	d, err := parallel.Decompose(640, 1, nodes, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := method.Config{
		Kind:       kind,
		NBands:     640,
		NPW:        33280,
		NPLWV:      512000,
		NElectrons: 1020,
		NIons:      255,
		NELM:       3,
		NSim:       4,
		Decomp:     d,
	}
	if kind == method.ACFDTR {
		cfg.NBandsExact = 4000
	}
	sched, err := method.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ns []*node.Node
	root := rng.New(11)
	for i := 0; i < nodes; i++ {
		var r *rng.Stream
		if seedNodes {
			r = root.Split(string(rune('a' + i)))
		}
		ns = append(ns, node.New("n", platform.Default(), r))
	}
	return solver.Job{
		Name:     "test",
		Schedule: sched,
		Nodes:    ns,
		Decomp:   d,
		Fabric:   interconnect.Slingshot(),
	}
}

func TestRunProducesAlignedTraces(t *testing.T) {
	job := testJob(t, method.DFTRMM, 2, true)
	res, err := solver.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime <= 0 {
		t.Fatal("no runtime")
	}
	for _, n := range job.Nodes {
		if math.Abs(n.TraceDuration()-res.Runtime) > 1e-9 {
			t.Fatalf("node trace %v != runtime %v", n.TraceDuration(), res.Runtime)
		}
		for i := 0; i < n.NumGPUs(); i++ {
			if math.Abs(n.GPUTrace(i).Duration()-res.Runtime) > 1e-9 {
				t.Fatal("GPU trace misaligned")
			}
		}
	}
	if res.EnergyJ <= 0 {
		t.Fatal("no energy")
	}
	if res.Steps != len(job.Schedule.Steps) {
		t.Fatalf("steps = %d, want %d", res.Steps, len(job.Schedule.Steps))
	}
}

func TestRunDeterministicWithoutNoise(t *testing.T) {
	a := testJob(t, method.DFTRMM, 1, false)
	b := testJob(t, method.DFTRMM, 1, false)
	ra, _ := solver.Run(a)
	rb, _ := solver.Run(b)
	if ra.Runtime != rb.Runtime || ra.EnergyJ != rb.EnergyJ {
		t.Fatalf("noise-free runs differ: %+v vs %+v", ra, rb)
	}
}

func TestNoiseVariesRuntime(t *testing.T) {
	a := testJob(t, method.DFTRMM, 1, false)
	a.Noise = rng.New(1)
	b := testJob(t, method.DFTRMM, 1, false)
	b.Noise = rng.New(2)
	ra, _ := solver.Run(a)
	rb, _ := solver.Run(b)
	if ra.Runtime == rb.Runtime {
		t.Fatal("noisy runs identical")
	}
	// Jitter is small: within 5%.
	if math.Abs(ra.Runtime-rb.Runtime)/ra.Runtime > 0.05 {
		t.Fatalf("jitter too large: %v vs %v", ra.Runtime, rb.Runtime)
	}
}

func TestPowerCapSlowsJob(t *testing.T) {
	base := testJob(t, method.HSE, 1, false)
	rBase, err := solver.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	capped := testJob(t, method.HSE, 1, false)
	for _, n := range capped.Nodes {
		if err := n.SetGPUPowerLimits(200); err != nil {
			t.Fatal(err)
		}
	}
	rCap, err := solver.Run(capped)
	if err != nil {
		t.Fatal(err)
	}
	if rCap.Runtime <= rBase.Runtime {
		t.Fatalf("200 W cap did not slow HSE: %v vs %v", rCap.Runtime, rBase.Runtime)
	}
	// And the GPU trace must respect the cap.
	if max := capped.Nodes[0].GPUTrace(0).MaxPower(); max > 200+1e-6 {
		t.Fatalf("GPU trace exceeds cap: %v", max)
	}
}

func TestACFDTRHasCPUPhase(t *testing.T) {
	job := testJob(t, method.ACFDTR, 1, false)
	res, err := solver.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.PhaseDurations["exact-diag"] <= 0 {
		t.Fatalf("no exact-diag phase time: %+v", res.PhaseDurations)
	}
	if res.PhaseDurations["rpa"] <= 0 || res.PhaseDurations["scf"] <= 0 {
		t.Fatalf("missing phases: %+v", res.PhaseDurations)
	}
	// During the CPU phase the GPUs idle: the GPU trace minimum must
	// be near idle power.
	n := job.Nodes[0]
	min := math.Inf(1)
	for _, seg := range n.GPUTrace(0).Segments() {
		min = math.Min(min, seg.Power)
	}
	if min > 60 {
		t.Fatalf("GPU never idles during CPU phase: min %v W", min)
	}
	// And the CPU trace must reach eigensolve power.
	if max := n.CPUTrace().MaxPower(); max < 200 {
		t.Fatalf("CPU phase never runs hot: max %v W", max)
	}
}

func TestRunValidation(t *testing.T) {
	job := testJob(t, method.DFTRMM, 1, false)
	bad := job
	bad.Schedule = &method.Schedule{}
	if _, err := solver.Run(bad); err == nil {
		t.Fatal("empty schedule accepted")
	}
	bad = job
	bad.Nodes = nil
	if _, err := solver.Run(bad); err == nil {
		t.Fatal("no nodes accepted")
	}
	bad = job
	d, _ := parallel.Decompose(640, 1, 2, 4, 1)
	bad.Decomp = d
	if _, err := solver.Run(bad); err == nil {
		t.Fatal("node-count mismatch accepted")
	}
}

func TestMoreNodesFasterButLessEfficient(t *testing.T) {
	r1, err := solver.Run(testJob(t, method.HSE, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := solver.Run(testJob(t, method.HSE, 4, false))
	if err != nil {
		t.Fatal(err)
	}
	if r4.Runtime >= r1.Runtime {
		t.Fatalf("4 nodes (%v s) not faster than 1 (%v s)", r4.Runtime, r1.Runtime)
	}
	speedup := r1.Runtime / r4.Runtime
	if speedup > 4 {
		t.Fatalf("superlinear speedup %v", speedup)
	}
	// Energy to solution grows with concurrency (paper §IV-C).
	if r4.EnergyJ <= r1.EnergyJ {
		t.Fatalf("energy should grow with nodes: %v vs %v", r4.EnergyJ, r1.EnergyJ)
	}
}

func TestCommScopesDiffer(t *testing.T) {
	// A group-scoped collective on a single node must be cheaper than
	// the same bytes across the whole multi-node job.
	d, err := parallel.Decompose(640, 4, 4, 4, 4) // groups fit in one node
	if err != nil {
		t.Fatal(err)
	}
	fabric := interconnect.Slingshot()
	group := fabric.AllReduce(64e6, d.GroupTopology)
	all := fabric.AllReduce(64e6, d.Topology)
	if group >= all {
		t.Fatalf("group collective (%v) should beat job-wide (%v)", group, all)
	}
}

func TestGPUVariabilityShowsInTraces(t *testing.T) {
	// Seeded nodes: the four GPUs of a node record slightly different
	// power for identical kernels (§III-B.2's DGEMM observation).
	job := testJob(t, method.DFTRMM, 1, true)
	if _, err := solver.Run(job); err != nil {
		t.Fatal(err)
	}
	n := job.Nodes[0]
	p0 := n.GPUTrace(0).MaxPower()
	same := true
	for i := 1; i < 4; i++ {
		if n.GPUTrace(i).MaxPower() != p0 {
			same = false
		}
	}
	if same {
		t.Fatal("all GPUs identical despite per-device variability")
	}
}

func TestPhaseDurationsSumToRuntime(t *testing.T) {
	job := testJob(t, method.ACFDTR, 1, false)
	res, err := solver.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, d := range res.PhaseDurations {
		sum += d
	}
	if math.Abs(sum-res.Runtime) > 1e-6 {
		t.Fatalf("phase durations sum %v != runtime %v", sum, res.Runtime)
	}
}

func TestRunAppendsToExistingTraces(t *testing.T) {
	// Two sequential runs on the same nodes accumulate (the repeat
	// protocol relies on this).
	job := testJob(t, method.DFTRMM, 1, false)
	r1, err := solver.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := solver.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	want := r1.Runtime + r2.Runtime
	if math.Abs(job.Nodes[0].TraceDuration()-want) > 1e-6 {
		t.Fatalf("trace duration %v, want %v", job.Nodes[0].TraceDuration(), want)
	}
}
