package vasppower_test

// Integration tests: cross-module flows exercised end to end, the way
// the CLIs drive them — run → telemetry → store → analysis, INCAR →
// workload → profile, and control-plane round trips.

import (
	"math"
	"strings"
	"testing"

	"vasppower"
	"vasppower/internal/dft/incar"
	"vasppower/internal/dft/lattice"
	"vasppower/internal/dft/method"
	"vasppower/internal/dft/parallel"
	"vasppower/internal/dft/solver"
	"vasppower/internal/hw/node"
	"vasppower/internal/hw/platform"
	"vasppower/internal/interconnect"
	"vasppower/internal/monitor"
	"vasppower/internal/omni"
	"vasppower/internal/stats"
	"vasppower/internal/workloads"
)

// TestTelemetryPipelineEndToEnd mirrors cmd/omniquery: run a job,
// sample every sensor through the lossy LDMS pipeline, store in OMNI,
// register the job, query it back, and analyze the result.
func TestTelemetryPipelineEndToEnd(t *testing.T) {
	bench, _ := workloads.ByName("PdO2")
	out, err := workloads.Run(workloads.RunSpec{
		Bench: bench, Nodes: 2, Repeats: 1, Prelude: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := omni.NewStore()
	cfg := monitor.LDMSDefault()
	for _, n := range out.Nodes {
		series, err := monitor.SampleNode(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for m, s := range series {
			if err := store.Insert(n.Name, m, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	var hosts []string
	for _, n := range out.Nodes {
		hosts = append(hosts, n.Name)
	}
	job := omni.JobRecord{ID: "42", App: bench.Name, Nodes: hosts,
		Start: out.VASPStart, End: out.VASPEnd}
	if err := store.RegisterJob(job); err != nil {
		t.Fatal(err)
	}

	// Per-node power through the store: mode detection still works on
	// the lossy 2 s data.
	perNode, err := store.JobPower("42", monitor.MetricNode)
	if err != nil {
		t.Fatal(err)
	}
	if len(perNode) != 2 {
		t.Fatalf("nodes = %d", len(perNode))
	}
	for host, s := range perNode {
		if s.Len() < 10 {
			t.Fatalf("%s: only %d samples", host, s.Len())
		}
		hm, ok := stats.HighPowerModeOf(s.Values)
		if !ok {
			t.Fatalf("%s: no mode through pipeline", host)
		}
		// Mode from lossy telemetry ≈ mode from the exact trace.
		exact := out.Nodes[0].TotalTrace().Sample(2).Slice(out.VASPStart, out.VASPEnd)
		exactMode, _ := stats.HighPowerModeOf(exact.Values)
		if math.Abs(hm.X-exactMode.X) > 0.1*exactMode.X {
			t.Fatalf("%s: pipeline mode %v far from exact %v", host, hm.X, exactMode.X)
		}
	}
	// Job energy from telemetry ≈ exact energy.
	e, err := store.JobEnergy("42")
	if err != nil {
		t.Fatal(err)
	}
	var exact float64
	for _, n := range out.Nodes {
		exact += n.TotalTrace().EnergyBetween(out.VASPStart, out.VASPEnd)
	}
	if math.Abs(e-exact)/exact > 0.05 {
		t.Fatalf("telemetry energy %v vs exact %v", e, exact)
	}
}

// TestINCARToProfile mirrors cmd/minivasp's -incar path: parse real
// input text, derive the workload, run it, and profile it.
func TestINCARToProfile(t *testing.T) {
	const incarText = `
SYSTEM = integration hybrid
ALGO = Damped ; LHFCALC = .TRUE.
NELM = 6
ENCUT = 245
`
	f, err := incar.Parse(incarText)
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.TypedParams()
	if err != nil {
		t.Fatal(err)
	}
	kind, err := method.FromParams(p)
	if err != nil {
		t.Fatal(err)
	}
	if kind != method.HSE {
		t.Fatalf("kind = %v", kind)
	}
	s, err := lattice.SiliconSupercell(128)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := lattice.FFTGrid(s, p.ENCUT, p.Prec)
	if err != nil {
		t.Fatal(err)
	}
	bench := workloads.Benchmark{
		Name: "integration", Description: "INCAR round trip",
		Structure: s, Method: kind, Functional: "HSE", AlgoName: "Damped",
		NELM: p.NELM, NBands: lattice.DefaultNBands(s.Electrons, s.NumIons, 8),
		FFTGrid: grid, KPoints: incar.GammaOnly(), KPar: 1,
		ENCUT: p.ENCUT, OptimalNodes: 1,
	}
	jp, err := vasppower.Measure(vasppower.MeasureSpec{Bench: bench, Nodes: 1, Repeats: 1, CapW: 0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mode, ok := jp.NodeTotal.HighMode()
	if !ok || jp.Runtime <= 0 {
		t.Fatal("profile empty")
	}
	// A hybrid run on Si128 should sit clearly above plain DFT.
	if mode.X < 1000 {
		t.Fatalf("HSE mode %v too low", mode.X)
	}
}

// TestControlPlaneRoundTrip sets a node-wide power limit (the paper's
// nvidia-smi -pl), reads it back, and observes its effect in the
// recorded traces.
func TestControlPlaneRoundTrip(t *testing.T) {
	bench, _ := workloads.ByName("B.hR105_hse")
	cfgM, err := bench.Config(platform.Platform{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := method.Build(cfgM)
	if err != nil {
		t.Fatal(err)
	}
	n := node.New("nid000001", platform.Default(), nil)
	if err := n.SetGPUPowerLimits(250); err != nil {
		t.Fatal(err)
	}
	if got := n.GPUs[0].PowerLimit(); got != 250 {
		t.Fatalf("limit read back as %v W, want 250", got)
	}
	prep, err := solver.Prepare(solver.Job{
		Name: "ctl", Schedule: sched, Nodes: []*node.Node{n},
		Decomp: cfgM.Decomp, Fabric: interconnect.Slingshot(),
	})
	if err != nil {
		t.Fatal(err)
	}
	prep.RunNoEnergy(nil)
	for i := 0; i < n.NumGPUs(); i++ {
		if max := n.GPUTrace(i).MaxPower(); max > 250.01 {
			t.Fatalf("gpu %d exceeded the set cap: %v", i, max)
		}
	}
}

// TestDecompositionConsistency: the same benchmark decomposed at
// different KPAR values does the same physical work — runtimes vary,
// but the number of SCF iterations (density all-reduces) must not.
func TestDecompositionConsistency(t *testing.T) {
	bench, _ := workloads.ByName("GaAsBi-64")
	count := func(kpar int) int {
		b := bench
		b.KPar = kpar
		cfg, err := b.Config(platform.Platform{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := method.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, st := range sched.Steps {
			if st.Kind == method.StepComm && strings.Contains(st.Label, "density") {
				n++
			}
		}
		return n
	}
	if a, b := count(1), count(2); a != b {
		t.Fatalf("density all-reduces differ across KPAR: %d vs %d", a, b)
	}
	// And the decomposition math holds: ranks per group × groups = ranks.
	d, err := parallel.Decompose(bench.NBands, bench.KPoints.Reduced(), 2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.RanksPerGroup*d.KPar != d.Ranks {
		t.Fatalf("decomposition inconsistent: %+v", d)
	}
}

// TestMILCAndVASPShareTheStack: the MILC workload runs through the
// identical solver/telemetry stack and lands in its own power band.
func TestMILCAndVASPShareTheStack(t *testing.T) {
	milc, err := workloads.RunMILC(workloads.MILCRunSpec{
		Spec: workloads.DefaultMILC(), Nodes: 1, Repeats: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	vasp, err := workloads.Run(workloads.RunSpec{
		Bench: mustBench(t, "B.hR105_hse"), Nodes: 1, Repeats: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	milcSeries := milc.Nodes[0].GPUTrace(0).Sample(2).Slice(milc.VASPStart, milc.VASPEnd)
	vaspSeries := vasp.Nodes[0].GPUTrace(0).Sample(2).Slice(vasp.VASPStart, vasp.VASPEnd)
	mMode, ok1 := stats.HighPowerModeOf(milcSeries.Values)
	vMode, ok2 := stats.HighPowerModeOf(vaspSeries.Values)
	if !ok1 || !ok2 {
		t.Fatal("missing modes")
	}
	// Distinct applications, distinct signatures.
	if math.Abs(mMode.X-vMode.X) < 20 {
		t.Fatalf("MILC (%v W) and HSE-VASP (%v W) indistinguishable", mMode.X, vMode.X)
	}
}

func mustBench(t *testing.T, name string) workloads.Benchmark {
	t.Helper()
	b, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("benchmark %s missing", name)
	}
	return b
}
