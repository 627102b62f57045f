package workloads

import (
	"testing"

	"vasppower/internal/cluster"
	"vasppower/internal/dft/method"
	"vasppower/internal/dft/parallel"
	"vasppower/internal/dft/solver"
	"vasppower/internal/dft/solver/solveroracle"
	"vasppower/internal/hw/node"
	"vasppower/internal/hw/platform"
	"vasppower/internal/interconnect"
	"vasppower/internal/rng"
	"vasppower/internal/telemetry"
	"vasppower/internal/timeseries"
)

func sweepTestSpec(t *testing.T, repeats int, entropy float64) RunSpec {
	t.Helper()
	b, ok := ByName("B.hR105_hse")
	if !ok {
		t.Fatal("benchmark not found")
	}
	return RunSpec{
		Bench:          b,
		Nodes:          2,
		Repeats:        repeats,
		Seed:           7,
		OperandEntropy: entropy,
	}
}

func sweepTracesEqual(t *testing.T, label string, a, b *timeseries.Trace) {
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

// sweepOutputsEqual pins a measurement to the oracle output: every
// runtime, the selected repeat, the solver summary, every phase
// window, and every trace of every node, all bit-identical.
func sweepOutputsEqual(t *testing.T, oracle, got RunOutput) {
	t.Helper()
	if len(oracle.Runtimes) != len(got.Runtimes) {
		t.Fatalf("runtimes %v vs oracle %v", got.Runtimes, oracle.Runtimes)
	}
	for i := range oracle.Runtimes {
		if oracle.Runtimes[i] != got.Runtimes[i] {
			t.Fatalf("runtime[%d] %v vs oracle %v", i, got.Runtimes[i], oracle.Runtimes[i])
		}
	}
	if oracle.Best != got.Best {
		t.Fatalf("best %d vs oracle %d", got.Best, oracle.Best)
	}
	if oracle.BestResult != got.BestResult {
		t.Fatalf("best result %+v vs oracle %+v", got.BestResult, oracle.BestResult)
	}
	if oracle.VASPStart != got.VASPStart || oracle.VASPEnd != got.VASPEnd {
		t.Fatalf("window [%v,%v] vs oracle [%v,%v]",
			got.VASPStart, got.VASPEnd, oracle.VASPStart, oracle.VASPEnd)
	}
	if len(oracle.PhaseWindows) != len(got.PhaseWindows) {
		t.Fatalf("phase windows %v vs oracle %v", got.PhaseWindows, oracle.PhaseWindows)
	}
	for name, w := range oracle.PhaseWindows {
		if got.PhaseWindows[name] != w {
			t.Fatalf("%s window %v vs oracle %v", name, got.PhaseWindows[name], w)
		}
	}
	if len(oracle.Nodes) != len(got.Nodes) {
		t.Fatalf("nodes %d vs oracle %d", len(got.Nodes), len(oracle.Nodes))
	}
	for ni := range oracle.Nodes {
		on, gn := oracle.Nodes[ni], got.Nodes[ni]
		if on.Name != gn.Name {
			t.Fatalf("node %d name %q vs oracle %q", ni, gn.Name, on.Name)
		}
		sweepTracesEqual(t, "cpu", on.CPUTrace(), gn.CPUTrace())
		sweepTracesEqual(t, "mem", on.MemTrace(), gn.MemTrace())
		for gi := 0; gi < on.NumGPUs(); gi++ {
			sweepTracesEqual(t, "gpu", on.GPUTrace(gi), gn.GPUTrace(gi))
		}
		sweepTracesEqual(t, "gpu scope", on.DomainTrace(node.DomainGPU), gn.DomainTrace(node.DomainGPU))
		sweepTracesEqual(t, "memory scope", on.DomainTrace(node.DomainMemory), gn.DomainTrace(node.DomainMemory))
		sweepTracesEqual(t, "total", on.TotalTrace(), gn.TotalTrace())
	}
}

// TestSweepCapPointsMatchRun is the engine's contract: every RunCap
// point of one Sweep is bit-identical to an independent run with that
// cap — the step-by-step oracle's — across repeats and entropy, in any
// point order (including revisiting a cap after other points).
func TestSweepCapPointsMatchRun(t *testing.T) {
	for _, tc := range []struct {
		repeats int
		entropy float64
	}{{1, 0}, {3, 0}, {2, 0.7}} {
		spec := sweepTestSpec(t, tc.repeats, tc.entropy)
		sw, err := NewSweep(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, capW := range []float64{0, 400, 250, 400, 0} {
			oracleSpec := spec
			oracleSpec.GPUPowerLimit = capW
			want, err := oracleRun(oracleSpec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sw.RunCap(capW)
			if err != nil {
				t.Fatal(err)
			}
			sweepOutputsEqual(t, want, got)
		}
		sw.Close()
	}
}

// TestRunMatchesOracle pins Run — every single measurement, the Fig 1
// prelude protocol included — to the step-by-step oracle across node
// counts, repeats, caps, clock locks and entropy. The prelude-repeats
// case selects repeat 1, so it pins the prelude's replay in every
// repeat and the winner's prelude windows.
func TestRunMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*RunSpec)
	}{
		{"plain", func(*RunSpec) {}},
		{"prelude-capped", func(s *RunSpec) { s.Prelude = true; s.GPUPowerLimit = 250 }},
		{"clock-entropy-1node", func(s *RunSpec) { s.Nodes = 1; s.GPUClockLimitMHz = 1100; s.OperandEntropy = 0.4 }},
		{"repeats-capped", func(s *RunSpec) { s.Repeats = 3; s.GPUPowerLimit = 180 }},
		{"prelude-repeats-clock", func(s *RunSpec) { s.Prelude = true; s.Repeats = 3; s.GPUClockLimitMHz = 1200 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := sweepTestSpec(t, 1, 0)
			tc.edit(&spec)
			want, err := oracleRun(spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			sweepOutputsEqual(t, want, got)
			if tc.name == "prelude-repeats-clock" && got.Best == 0 {
				t.Fatal("repeat 0 won: the case no longer pins a later repeat's prelude")
			}
		})
	}
}

// TestRunMILCMatchesOracle pins the MILC protocol, which runs through
// Run's one-point sweep, to the oracle executor on the same schedule.
func TestRunMILCMatchesOracle(t *testing.T) {
	for _, spec := range []MILCRunSpec{
		{Spec: DefaultMILC(), Nodes: 2, Repeats: 2, Seed: 5, GPUPowerLimit: 220},
		{Spec: DefaultMILC(), Nodes: 1, Repeats: 3, Seed: 11, GPUPowerLimit: 250},
	} {
		spec.Spec.Trajectories = 1
		got, err := RunMILC(spec)
		if err != nil {
			t.Fatal(err)
		}
		p := platform.Default()
		d, err := parallel.Decompose(spec.Spec.Lattice[3], 1, spec.Nodes, p.GPUsPerNode, 1)
		if err != nil {
			t.Fatal(err)
		}
		sched := milcSchedule(new(method.Schedule), spec.Spec, d)
		root := rng.New(spec.Seed)
		for r := 0; r < spec.Repeats; r++ {
			nodes, err := cluster.New(p, spec.Nodes, spec.Seed).Allocate(spec.Nodes)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range nodes {
				if err := n.SetGPUPowerLimits(spec.GPUPowerLimit); err != nil {
					t.Fatal(err)
				}
			}
			want, err := solveroracle.Run(solver.Job{
				Schedule: sched, Nodes: nodes, Decomp: d,
				Fabric: interconnect.Slingshot(), Noise: solveroracle.Noise(root, r),
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.Runtimes[r] != want.Runtime {
				t.Fatalf("repeats=%d: repeat %d runtime %v vs oracle %v", spec.Repeats, r, got.Runtimes[r], want.Runtime)
			}
			if r == got.Best {
				if got.BestResult.EnergyJ != want.EnergyJ {
					t.Fatalf("repeats=%d: energy %v vs oracle %v", spec.Repeats, got.BestResult.EnergyJ, want.EnergyJ)
				}
				for ni := range nodes {
					sweepTracesEqual(t, "total", nodes[ni].TotalTrace(), got.Nodes[ni].TotalTrace())
					for gi := 0; gi < nodes[ni].NumGPUs(); gi++ {
						sweepTracesEqual(t, "gpu", nodes[ni].GPUTrace(gi), got.Nodes[ni].GPUTrace(gi))
					}
				}
			}
		}
	}
}

// TestSweepClockPointsMatchRun pins the DVFS axis the same way.
func TestSweepClockPointsMatchRun(t *testing.T) {
	spec := sweepTestSpec(t, 2, 0)
	sw, err := NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	for _, mhz := range []float64{0, 1200, 900, 1395} {
		oracleSpec := spec
		oracleSpec.GPUClockLimitMHz = mhz
		want, err := oracleRun(oracleSpec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sw.RunClockMHz(mhz)
		if err != nil {
			t.Fatal(err)
		}
		sweepOutputsEqual(t, want, got)
	}
}

// TestSweepMixedAxesMatchRun interleaves cap and clock points: each
// Run* call must fully clear the other axis's limit.
func TestSweepMixedAxesMatchRun(t *testing.T) {
	spec := sweepTestSpec(t, 1, 0)
	sw, err := NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()

	oracleSpec := spec
	oracleSpec.GPUClockLimitMHz = 1200
	if _, err := sw.RunCap(300); err != nil {
		t.Fatal(err)
	}
	want, err := oracleRun(oracleSpec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sw.RunClockMHz(1200)
	if err != nil {
		t.Fatal(err)
	}
	sweepOutputsEqual(t, want, got)

	oracleSpec = spec
	oracleSpec.GPUPowerLimit = 300
	want, err = oracleRun(oracleSpec)
	if err != nil {
		t.Fatal(err)
	}
	got, err = sw.RunCap(300)
	if err != nil {
		t.Fatal(err)
	}
	sweepOutputsEqual(t, want, got)
}

// TestSweepRejectsUnsupportedSpecs: the engine refuses specs that
// carry per-run settings (prelude, limits). A telemetry sink is not a
// reason to refuse: with one attached, a sweep publishes the same
// sample sequence — hosts, stream times and watts — as a Run per
// point.
func TestSweepRejectsUnsupportedSpecs(t *testing.T) {
	base := sweepTestSpec(t, 2, 0)

	spec := base
	spec.Prelude = true
	if _, err := NewSweep(spec); err == nil {
		t.Fatal("prelude spec accepted")
	}

	spec = base
	spec.GPUPowerLimit = 300
	if _, err := NewSweep(spec); err == nil {
		t.Fatal("pre-capped spec accepted")
	}

	spec = base
	spec.GPUClockLimitMHz = 1200
	if _, err := NewSweep(spec); err == nil {
		t.Fatal("pre-locked spec accepted")
	}

	caps := []float64{0, 250, 150}
	viaSweep := publishedSamples(t, func(sink *telemetry.Sampler) {
		spec := base
		spec.Sink = sink
		sw, err := NewSweep(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer sw.Close()
		for _, capW := range caps {
			if _, err := sw.RunCap(capW); err != nil {
				t.Fatal(err)
			}
		}
	})
	viaRun := publishedSamples(t, func(sink *telemetry.Sampler) {
		for _, capW := range caps {
			pt := base
			pt.GPUPowerLimit = capW
			pt.Sink = sink
			if _, err := Run(pt); err != nil {
				t.Fatal(err)
			}
		}
	})
	if len(viaRun) == 0 {
		t.Fatal("per-point runs published no samples")
	}
	if len(viaSweep) != len(viaRun) {
		t.Fatalf("sweep published %d samples, per-point runs %d", len(viaSweep), len(viaRun))
	}
	for i := range viaRun {
		if viaSweep[i] != viaRun[i] {
			t.Fatalf("sample %d: sweep %+v, per-point run %+v", i, viaSweep[i], viaRun[i])
		}
	}
}

// publishedSamples runs fn with a fresh telemetry sink and returns
// every sample fn's runs published into it, in order.
func publishedSamples(t *testing.T, fn func(*telemetry.Sampler)) []telemetry.Sample {
	t.Helper()
	hub := telemetry.NewHub(nil)
	sub, err := hub.Subscribe("", 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	s, err := telemetry.NewSampler(hub, 2)
	if err != nil {
		t.Fatal(err)
	}
	fn(s)
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("subscription dropped %d samples; raise its capacity", d)
	}
	var out []telemetry.Sample
	for {
		smp, ok := sub.TryNext()
		if !ok {
			return out
		}
		out = append(out, smp)
	}
}

// BenchmarkCapSweep measures the run engine itself — schedule solve +
// trace recording, the phase the incremental split restructures — on a
// cold 16-point cap sweep at the paper's 5-repeat protocol: a full Run
// per point versus one NewSweep plus 16 RunCap points.
// (The core-level grid in internal/core wraps this with the shared
// profiling pass, which is identical on both paths.)
func BenchmarkCapSweep(b *testing.B) {
	bench, ok := ByName("B.hR105_hse")
	if !ok {
		b.Fatal("benchmark not found")
	}
	spec := RunSpec{Bench: bench, Nodes: 1, Repeats: 5, Seed: 7}
	caps := make([]float64, 16)
	for i := range caps {
		caps[i] = 180 + 14*float64(i) // 180..390 W, all binding on A100
	}

	// engine=oracle is a full Run per point; the name is kept so the
	// rows compare against earlier results.
	b.Run("points=16/repeats=5/engine=oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, capW := range caps {
				pt := spec
				pt.GPUPowerLimit = capW
				if _, err := Run(pt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("points=16/repeats=5/engine=incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sw, err := NewSweep(spec)
			if err != nil {
				b.Fatal(err)
			}
			for _, capW := range caps {
				if _, err := sw.RunCap(capW); err != nil {
					b.Fatal(err)
				}
			}
			sw.Close()
		}
	})
}

// TestSweepCloseReleasesArena: the active-sweep gauge returns to zero,
// Close is idempotent, and a closed sweep refuses to run.
func TestSweepCloseReleasesArena(t *testing.T) {
	before := ActiveSweeps()
	sw, err := NewSweep(sweepTestSpec(t, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := ActiveSweeps(); got != before+1 {
		t.Fatalf("active sweeps %d, want %d", got, before+1)
	}
	if _, err := sw.RunCap(300); err != nil {
		t.Fatal(err)
	}
	sw.Close()
	sw.Close()
	if got := ActiveSweeps(); got != before {
		t.Fatalf("active sweeps %d after close, want %d", got, before)
	}
	if _, err := sw.RunCap(300); err == nil {
		t.Fatal("closed sweep ran")
	}

	// The arena's nodes went back to the pool with limits and traces
	// reset: a fresh sweep from the same spec must reproduce the oracle.
	spec := sweepTestSpec(t, 1, 0)
	sw2, err := NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sw2.Close()
	want, err := oracleRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sw2.RunCap(0)
	if err != nil {
		t.Fatal(err)
	}
	sweepOutputsEqual(t, want, got)
}
