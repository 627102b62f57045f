package node

import (
	"fmt"
	"math"
	"testing"

	"vasppower/internal/hw/platform"
	"vasppower/internal/rng"
)

func TestNodeMatchesPlatform(t *testing.T) {
	p := platform.Default()
	if p.Node.TDP != 2350 {
		t.Fatalf("node TDP = %v, want 2350", p.Node.TDP)
	}
	n := New("nid001", p, nil)
	if n.NumGPUs() != p.GPUsPerNode {
		t.Fatalf("NumGPUs = %d, want %d", n.NumGPUs(), p.GPUsPerNode)
	}
	if n.CPU.Spec.Name != p.CPU.Name || n.GPUs[0].Spec.Name != p.GPU.Name {
		t.Fatalf("node components %s/%s do not match platform %s/%s",
			n.CPU.Spec.Name, n.GPUs[0].Spec.Name, p.CPU.Name, p.GPU.Name)
	}
}

func TestNodeZeroPlatformDefaults(t *testing.T) {
	n := New("nid001", platform.Platform{}, nil)
	if n.Platform.Name != platform.DefaultName {
		t.Fatalf("zero platform resolved to %q, want %q", n.Platform.Name, platform.DefaultName)
	}
}

func TestIdlePowerInPublishedRange(t *testing.T) {
	// The paper's random check of 16 nodes found idle power between
	// 410 and 510 W (§III-B.2). Our fleet must land in (roughly) that
	// band, and must actually vary node to node.
	root := rng.New(1)
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	for i := 0; i < 64; i++ {
		n := New(fmt.Sprintf("nid%03d", i), platform.Default(), root.Split(fmt.Sprintf("nid%03d", i)))
		p := n.IdlePower()
		if p < 390 || p > 530 {
			t.Fatalf("node %d idle power %v outside plausible range", i, p)
		}
		lo = math.Min(lo, p)
		hi = math.Max(hi, p)
	}
	if hi-lo < 30 {
		t.Fatalf("idle power spread %v W too small; paper saw up to 100 W", hi-lo)
	}
	if hi-lo > 130 {
		t.Fatalf("idle power spread %v W implausibly large", hi-lo)
	}
}

func TestNodeVariabilityDeterministic(t *testing.T) {
	a := New("nid007", platform.Default(), rng.New(9).Split("nid007"))
	b := New("nid007", platform.Default(), rng.New(9).Split("nid007"))
	if a.IdlePower() != b.IdlePower() {
		t.Fatal("same node identity produced different idle power")
	}
}

func TestRecordAlignsTraces(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	p := n.Idle()
	n.Record(5, p)
	p.CPU = 200
	p.GPUs = []float64{350, 350, 350, 350}
	n.Record(10, p)
	if d := n.TraceDuration(); d != 15 {
		t.Fatalf("trace duration = %v, want 15", d)
	}
	for i := 0; i < n.NumGPUs(); i++ {
		if n.GPUTrace(i).Duration() != 15 {
			t.Fatalf("gpu %d trace misaligned", i)
		}
	}
	if n.MemTrace().Duration() != 15 {
		t.Fatal("mem trace misaligned")
	}
}

func TestTotalTraceIncludesPeripherals(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	n.RecordIdle(10)
	total := n.TotalTrace()
	components := n.CPUTrace().PowerAt(5) + n.MemTrace().PowerAt(5)
	for i := 0; i < n.NumGPUs(); i++ {
		components += n.GPUTrace(i).PowerAt(5)
	}
	gap := total.PowerAt(5) - components
	if math.Abs(gap-n.PeripheralPower()) > 1e-6 {
		t.Fatalf("node-vs-components gap = %v, want peripheral %v", gap, n.PeripheralPower())
	}
	// The node sensor and IdlePower sum in one order, so an idle sensor
	// reads IdlePower to the bit on every node, nominal or not.
	for seed := uint64(0); seed <= 200; seed++ {
		var r *rng.Stream // seed 0: the nominal node
		if seed > 0 {
			r = rng.New(seed)
		}
		m := New("nid001", platform.Default(), r)
		m.RecordIdle(10)
		if got, want := m.TotalTrace().PowerAt(5), m.IdlePower(); got != want {
			t.Fatalf("seed %d: idle total trace = %v, want IdlePower %v", seed, got, want)
		}
	}
}

func TestGPUSumTrace(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	p := n.Idle()
	for i := range p.GPUs {
		p.GPUs[i] = 100 * float64(i+1)
	}
	n.Record(4, p)
	sum := n.GPUSumTrace()
	if got := sum.PowerAt(2); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("GPU sum = %v, want 1000", got)
	}
}

func TestResetTraces(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	n.RecordIdle(5)
	_ = n.SetGPUPowerLimits(200)
	n.ResetTraces()
	if n.TraceDuration() != 0 {
		t.Fatal("traces not cleared")
	}
	// Power limits survive a trace reset.
	if n.GPUs[0].PowerLimit() != 200 {
		t.Fatal("ResetTraces clobbered power limits")
	}
}

func TestSetGPUPowerLimits(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	if err := n.SetGPUPowerLimits(300); err != nil {
		t.Fatal(err)
	}
	for i, g := range n.GPUs {
		if g.PowerLimit() != 300 {
			t.Fatalf("gpu %d limit = %v", i, g.PowerLimit())
		}
	}
	if err := n.SetGPUPowerLimits(50); err == nil {
		t.Fatal("invalid limit accepted")
	}
	n.ResetGPUPowerLimits()
	if n.GPUs[3].PowerLimit() != 400 {
		t.Fatal("reset failed")
	}
}

// checkPowerLimits fails unless every GPU on n is capped at want watts.
func checkPowerLimits(t *testing.T, n *Node, what string, want float64) {
	t.Helper()
	for i, g := range n.GPUs {
		if g.PowerLimit() != want {
			t.Fatalf("%s: gpu %d limit = %v, want %v", what, i, g.PowerLimit(), want)
		}
	}
}

// TestSetPowerLimitAllGPUs covers the node-wide cap (nvidia-smi -pl on
// every device), both directly and through SetGPULimits, which the
// measurement engine drives.
func TestSetPowerLimitAllGPUs(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	if err := n.SetGPUPowerLimits(300); err != nil {
		t.Fatal(err)
	}
	checkPowerLimits(t, n, "SetGPUPowerLimits(300)", 300)
	if err := n.SetGPULimits(200, 0); err != nil {
		t.Fatal(err)
	}
	checkPowerLimits(t, n, "SetGPULimits(200, 0)", 200)
}

// TestResetPowerLimit resets one device, then all of them, then resets
// through SetGPULimits(0, 0).
func TestResetPowerLimit(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	if err := n.SetGPUPowerLimits(200); err != nil {
		t.Fatal(err)
	}
	n.GPUs[1].ResetPowerLimit()
	if n.GPUs[1].PowerLimit() != 400 || n.GPUs[0].PowerLimit() != 200 {
		t.Fatal("single reset wrong")
	}
	n.ResetGPUPowerLimits()
	checkPowerLimits(t, n, "reset all", 400)
	if err := n.SetGPULimits(200, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.SetGPULimits(0, 0); err != nil {
		t.Fatal(err)
	}
	checkPowerLimits(t, n, "SetGPULimits(0, 0)", 400)
}

func TestRecordNegativePanics(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration did not panic")
		}
	}()
	n.Record(-1, n.Idle())
}

func TestRecordZeroIgnored(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	n.Record(0, n.Idle())
	if n.TraceDuration() != 0 {
		t.Fatal("zero-duration record stored")
	}
}

func TestSetGPUClockLimits(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	if err := n.SetGPUClockLimits(1200); err != nil {
		t.Fatal(err)
	}
	for i, g := range n.GPUs {
		if g.ClockLimit() >= 1 {
			t.Fatalf("gpu %d clock not locked", i)
		}
	}
	if err := n.SetGPUClockLimits(10); err == nil {
		t.Fatal("invalid clock accepted")
	}
	n.ResetGPUClockLimits()
	if n.GPUs[0].ClockLimit() != 1 {
		t.Fatal("reset failed")
	}
}

// TestSetClockLimit covers the node-wide clock lock (nvidia-smi -lgc on
// every device): lock all, reset one, reset all, and the same through
// SetGPULimits.
func TestSetClockLimit(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	checkLocked := func(what string, locked bool) {
		t.Helper()
		for i, g := range n.GPUs {
			if got := g.ClockLimit() < 1; got != locked {
				t.Fatalf("%s: gpu %d clock limit %v, locked = %v, want %v", what, i, g.ClockLimit(), got, locked)
			}
		}
	}
	if err := n.SetGPUClockLimits(1100); err != nil {
		t.Fatal(err)
	}
	checkLocked("lock all", true)
	if err := n.SetGPUClockLimits(5000); err == nil {
		t.Fatal("bad clock accepted")
	}
	n.GPUs[0].ResetClockLimit()
	if n.GPUs[0].ClockLimit() != 1 || n.GPUs[1].ClockLimit() >= 1 {
		t.Fatal("single reset wrong")
	}
	n.ResetGPUClockLimits()
	checkLocked("reset all", false)
	if err := n.SetGPULimits(0, 1100); err != nil {
		t.Fatal(err)
	}
	checkLocked("SetGPULimits(0, 1100)", true)
	if err := n.SetGPULimits(0, 0); err != nil {
		t.Fatal(err)
	}
	checkLocked("SetGPULimits(0, 0)", false)
}
