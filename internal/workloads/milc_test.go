package workloads

import (
	"testing"

	"vasppower/internal/stats"
)

func TestMILCSpecValidate(t *testing.T) {
	if err := DefaultMILC().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultMILC()
	bad.Lattice[0] = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("tiny lattice accepted")
	}
	bad = DefaultMILC()
	bad.Trajectories = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("empty run accepted")
	}
	if DefaultMILC().Sites() != 32*32*32*64 {
		t.Fatal("sites wrong")
	}
}

func TestRunMILCProfile(t *testing.T) {
	out, err := RunMILC(MILCRunSpec{Spec: DefaultMILC(), Nodes: 1, Repeats: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if out.BestResult.Runtime <= 0 {
		t.Fatal("no runtime")
	}
	// MILC is bandwidth-bound: flat, moderate GPU power — well below
	// the hybrid-VASP near-TDP regime, well above idle.
	s := out.Nodes[0].GPUTrace(0).Sample(2).Slice(out.VASPStart, out.VASPEnd)
	hm, ok := stats.HighPowerModeOf(s.Values)
	if !ok {
		t.Fatal("no GPU mode")
	}
	if hm.X < 180 || hm.X > 320 {
		t.Fatalf("MILC GPU mode %.0f W, want bandwidth-bound band (180-320)", hm.X)
	}
	// Flat profile: tight interquartile range relative to the mode.
	sum, _ := stats.Describe(s.Values)
	if (sum.Q3-sum.Q1)/hm.X > 0.25 {
		t.Fatalf("MILC profile not flat: IQR %.0f W at mode %.0f W", sum.Q3-sum.Q1, hm.X)
	}
}

func TestMILCCapTolerance(t *testing.T) {
	base, err := RunMILC(MILCRunSpec{Spec: DefaultMILC(), Nodes: 1, Repeats: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := RunMILC(MILCRunSpec{Spec: DefaultMILC(), Nodes: 1, Repeats: 1, Seed: 7,
		GPUPowerLimit: 200})
	if err != nil {
		t.Fatal(err)
	}
	slow := capped.BestResult.Runtime/base.BestResult.Runtime - 1
	// Bandwidth-bound work tolerates a 50% TDP cap almost for free —
	// the [35] finding for MILC.
	if slow > 0.05 {
		t.Fatalf("MILC slowed %.1f%% at 200 W; should be cap-tolerant", slow*100)
	}
}

func TestMILCScalesWithNodes(t *testing.T) {
	one, err := RunMILC(MILCRunSpec{Spec: DefaultMILC(), Nodes: 1, Repeats: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	two, err := RunMILC(MILCRunSpec{Spec: DefaultMILC(), Nodes: 2, Repeats: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if two.BestResult.Runtime >= one.BestResult.Runtime {
		t.Fatal("MILC did not speed up with nodes")
	}
}

func TestRunMILCValidation(t *testing.T) {
	if _, err := RunMILC(MILCRunSpec{Spec: DefaultMILC(), Nodes: 0}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	bad := DefaultMILC()
	bad.MDSteps = 0
	if _, err := RunMILC(MILCRunSpec{Spec: bad, Nodes: 1}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := RunMILC(MILCRunSpec{Spec: DefaultMILC(), Nodes: 1, GPUPowerLimit: 10}); err == nil {
		t.Fatal("invalid cap accepted")
	}
}

// TestMILCSweepMatchesRunMILC: every RunCap point of a MILC sweep is
// bit-identical to RunMILC at that cap, in an arena that last held a
// longer VASP schedule on more nodes, and in one that held the MILC
// sweep before; the spec must carry no limits of its own.
func TestMILCSweepMatchesRunMILC(t *testing.T) {
	m := DefaultMILC()
	m.Trajectories = 1
	spec := MILCRunSpec{Spec: m, Nodes: 1, Repeats: 2, Seed: 9, OperandEntropy: 0.4}
	var a Arena
	b, _ := ByName("B.hR105_hse")
	vasp, err := NewSweepIn(&a, RunSpec{Bench: b, Nodes: 2, Repeats: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vasp.RunCap(0); err != nil {
		t.Fatal(err)
	}
	vasp.Close()
	active := ActiveSweeps()
	for round := 0; round < 2; round++ {
		sw, err := NewMILCSweepIn(&a, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, capW := range []float64{0, 250, 150, 0} {
			pt := spec
			pt.GPUPowerLimit = capW
			want, err := RunMILC(pt)
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
		if got := ActiveSweeps(); got != active {
			t.Fatalf("live sweeps %d after Close, want %d", got, active)
		}
	}
	for _, bad := range []MILCRunSpec{
		{Spec: m, Nodes: 1, GPUPowerLimit: 250},
		{Spec: m, Nodes: 1, GPUClockLimitMHz: 1200},
		{Spec: m, Nodes: 0},
	} {
		if _, err := NewMILCSweepIn(&a, bad); err == nil {
			t.Fatalf("%+v accepted", bad)
		}
	}
}
