package workloads

import (
	"math"
	"slices"
	"testing"

	"vasppower/internal/dft/method"
	"vasppower/internal/dft/parallel"
	"vasppower/internal/hw/gpu"
	"vasppower/internal/hw/node"
	"vasppower/internal/timeseries"
)

func TestRunBasicProtocol(t *testing.T) {
	b, _ := ByName("B.hR105_hse")
	out, err := Run(RunSpec{Bench: b, Nodes: 1, Repeats: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Runtimes) != 3 {
		t.Fatalf("runtimes = %d", len(out.Runtimes))
	}
	// Best is the minimum.
	for _, rt := range out.Runtimes {
		if rt < out.Runtimes[out.Best] {
			t.Fatal("Best is not the minimum runtime")
		}
	}
	if out.VASPEnd <= out.VASPStart {
		t.Fatal("empty VASP window")
	}
	if math.Abs((out.VASPEnd-out.VASPStart)-out.Runtimes[out.Best]) > 1e-6 {
		t.Fatal("window does not match best runtime")
	}
	if w, ok := out.PhaseWindows["vasp"]; !ok || w[0] != out.VASPStart {
		t.Fatal("vasp phase window missing")
	}
}

func TestRunRepeatsVary(t *testing.T) {
	b, _ := ByName("B.hR105_hse")
	out, err := Run(RunSpec{Bench: b, Nodes: 1, Repeats: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	allEqual := true
	for _, rt := range out.Runtimes[1:] {
		if rt != out.Runtimes[0] {
			allEqual = false
		}
	}
	if allEqual {
		t.Fatal("five repeats produced identical runtimes (no jitter)")
	}
	// Jitter is small: spread under 5%.
	lo, hi := out.Runtimes[0], out.Runtimes[0]
	for _, rt := range out.Runtimes {
		lo = math.Min(lo, rt)
		hi = math.Max(hi, rt)
	}
	if (hi-lo)/lo > 0.05 {
		t.Fatalf("runtime spread %.1f%% too large", (hi-lo)/lo*100)
	}
}

func TestRunPreludePhases(t *testing.T) {
	b, _ := ByName("B.hR105_hse")
	out, err := Run(RunSpec{Bench: b, Nodes: 2, Repeats: 1, Prelude: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"dgemm", "stream", "idle", "vasp"} {
		w, ok := out.PhaseWindows[phase]
		if !ok || w[1] <= w[0] {
			t.Fatalf("phase %s window missing or empty", phase)
		}
	}
	// DGEMM runs hot, near the GPU cap; idle sits at node idle power.
	n := out.Nodes[0]
	dg := out.PhaseWindows["dgemm"]
	idle := out.PhaseWindows["idle"]
	dgemmGPU := n.GPUTrace(0).MeanBetween(dg[0], dg[1])
	if dgemmGPU < 350 {
		t.Fatalf("DGEMM GPU power %.0f W, want near TDP", dgemmGPU)
	}
	idleNode := n.TotalTrace().MeanBetween(idle[0], idle[1])
	if idleNode < 390 || idleNode > 530 {
		t.Fatalf("idle node power %.0f W outside published band", idleNode)
	}
}

func TestRunAppliesPowerCap(t *testing.T) {
	b, _ := ByName("B.hR105_hse")
	out, err := Run(RunSpec{Bench: b, Nodes: 1, Repeats: 1, GPUPowerLimit: 200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if max := out.Nodes[0].GPUTrace(0).MaxPower(); max > 200.01 {
		t.Fatalf("GPU exceeded 200 W cap: %.1f", max)
	}
	if _, err := Run(RunSpec{Bench: b, Nodes: 1, Repeats: 1, GPUPowerLimit: 50}); err == nil {
		t.Fatal("invalid cap accepted")
	}
}

func TestRunValidation(t *testing.T) {
	b, _ := ByName("B.hR105_hse")
	if _, err := Run(RunSpec{Bench: b, Nodes: 0}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	bad := b
	bad.NELM = 0
	if _, err := Run(RunSpec{Bench: bad, Nodes: 1}); err == nil {
		t.Fatal("invalid benchmark accepted")
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	b, _ := ByName("B.hR105_hse")
	a, err := Run(RunSpec{Bench: b, Nodes: 1, Repeats: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Run(RunSpec{Bench: b, Nodes: 1, Repeats: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Runtimes {
		if a.Runtimes[i] != c.Runtimes[i] {
			t.Fatal("same seed produced different runtimes")
		}
	}
}

func TestMicroSchedules(t *testing.T) {
	spec := gpu.A100SXM40GB()
	dg := DGEMMSchedule(spec, 10)
	if len(dg.Steps) != 1 || len(dg.Kernels) != 1 || dg.Steps[0].Kernel != 0 || dg.Kernels[0].Flops <= 0 {
		t.Fatal("DGEMM schedule malformed")
	}
	st := StreamSchedule(spec, 10)
	if len(st.Steps) != 1 || len(st.Kernels) != 1 || st.Steps[0].Kernel != 0 || st.Kernels[0].Bytes <= 0 {
		t.Fatal("STREAM schedule malformed")
	}
	g := gpu.New(spec, nil, 0, nil, gpu.DefaultVariability())
	dp, err := g.Resolve(dg.Kernels[0])
	if err != nil {
		t.Fatal(err)
	}
	sp, err := g.Resolve(st.Kernels[0])
	if err != nil {
		t.Fatal(err)
	}
	if sp.SMActivity >= dp.ComputeOcc {
		t.Fatal("STREAM should run cooler than DGEMM")
	}
}

// TestMicroAndMILCResolutionPinned pins the default table's resolution
// of every workloads-emitted kernel class to the exact constants the
// schedules carried inline before the efficiency refactor — the
// workloads-side counterpart of dft/method's differential oracle.
func TestMicroAndMILCResolutionPinned(t *testing.T) {
	spec := gpu.A100SXM40GB()
	model := gpu.DefaultEfficiency()
	d, err := parallel.Decompose(DefaultMILC().Lattice[3], 1, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched := milcSchedule(new(method.Schedule), DefaultMILC(), d)
	var dslash, force gpu.Kernel
	for _, s := range sched.Steps {
		if s.Kind != method.StepGPU {
			continue
		}
		switch k := sched.Kernels[s.Kernel]; k.Class {
		case gpu.ClassStencil:
			dslash = k
		case gpu.ClassSU3Force:
			force = k
		}
	}
	cases := []struct {
		k    gpu.Kernel
		want gpu.ExecProfile
	}{
		{DGEMMSchedule(spec, 10).Kernels[0], gpu.ExecProfile{ComputeOcc: 0.95, MemOcc: 0.85, PowerScale: 1}},
		{StreamSchedule(spec, 10).Kernels[0], gpu.ExecProfile{ComputeOcc: 0.9, MemOcc: 0.92, SMActivity: 0.30, PowerScale: 1}},
		{dslash, gpu.ExecProfile{ComputeOcc: 0.60, MemOcc: 0.75, SMActivity: 0.42, PowerScale: 1}},
		{force, gpu.ExecProfile{ComputeOcc: 0.55, MemOcc: 0.60, SMActivity: 0.62, PowerScale: 1}},
	}
	for _, c := range cases {
		if c.k.Class == "" {
			t.Fatal("pin case kernel not found in schedule")
		}
		got, err := model.Resolve(c.k)
		if err != nil {
			t.Fatalf("%s: %v", c.k.Class, err)
		}
		if got != c.want {
			t.Fatalf("%s resolved %+v, want %+v", c.k.Class, got, c.want)
		}
	}
}

// TestRunOwnsItsOutput: Run's nodes and traces belong to the caller.
// Later Runs, RunMILCs and an arena sweep must leave them bit-unchanged
// (a one-point sweep that was closed, or that lent its storage to an
// arena, would reset or recycle them), and no Run may leave a live
// sweep behind.
func TestRunOwnsItsOutput(t *testing.T) {
	b, _ := ByName("B.hR105_hse")
	spec := RunSpec{Bench: b, Nodes: 2, Repeats: 2, Prelude: true, GPUPowerLimit: 300, Seed: 3}
	active := ActiveSweeps()
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := ActiveSweeps(); got != active {
		t.Fatalf("Run left %d live sweeps, want %d", got, active)
	}
	type snap struct {
		traces [][]timeseries.Segment
		energy float64
	}
	take := func(n *node.Node) snap {
		trs := []*timeseries.Trace{n.CPUTrace(), n.MemTrace(), n.TotalTrace()}
		for gi := 0; gi < n.NumGPUs(); gi++ {
			trs = append(trs, n.GPUTrace(gi), n.GPUMemTrace(gi))
		}
		var s snap
		for _, tr := range trs {
			s.traces = append(s.traces, slices.Clone(tr.Segments()))
		}
		s.energy = n.TotalTrace().Energy()
		return s
	}
	// The traces Run hands back hold the whole selected repeat.
	checkEnergy(t, "Run", out)
	var want []snap
	for ni, n := range out.Nodes {
		if d := n.TraceDuration(); d != out.VASPEnd || d <= out.PhaseWindows["idle"][1] {
			t.Fatalf("node %d: traces end at %v, want the VASP window's end %v", ni, d, out.VASPEnd)
		}
		want = append(want, take(n))
	}

	for _, later := range []func() error{
		func() error { _, err := Run(spec); return err },
		func() error { _, err := Run(RunSpec{Bench: b, Nodes: 1, Repeats: 3, Seed: 8}); return err },
		func() error {
			m := DefaultMILC()
			m.Trajectories = 1
			_, err := RunMILC(MILCRunSpec{Spec: m, Nodes: 2, Repeats: 2, GPUPowerLimit: 250, Seed: 3})
			return err
		},
		func() error {
			var a Arena
			sw, err := NewSweepIn(&a, RunSpec{Bench: b, Nodes: 2, Repeats: 2, Seed: 3})
			if err != nil {
				return err
			}
			defer sw.Close()
			_, err = sw.RunCap(250)
			return err
		},
	} {
		before := ActiveSweeps()
		if err := later(); err != nil {
			t.Fatal(err)
		}
		if got := ActiveSweeps(); got != before {
			t.Fatalf("live sweeps %d after a later run, want %d", got, before)
		}
	}

	for ni, n := range out.Nodes {
		got := take(n)
		if got.energy != want[ni].energy {
			t.Fatalf("node %d: total energy %v, was %v", ni, got.energy, want[ni].energy)
		}
		for ti := range want[ni].traces {
			if !slices.Equal(got.traces[ti], want[ni].traces[ti]) {
				t.Fatalf("node %d: trace %d changed after later runs", ni, ti)
			}
		}
	}
}
