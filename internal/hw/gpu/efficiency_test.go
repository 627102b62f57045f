package gpu

import (
	"encoding/json"
	"math"
	"testing"
)

func TestResolveUnknownClass(t *testing.T) {
	m := DefaultEfficiency()
	if _, err := m.Resolve(Kernel{Name: "x", Class: "no-such-class", Flops: 1}); err == nil {
		t.Fatal("unknown class resolved")
	}
}

func TestResolveSharedFillScalesAllResponses(t *testing.T) {
	m := DefaultEfficiency()
	small := Kernel{Name: "s", Class: ClassFFT, Flops: 1e9, Bytes: 1e9, Axes: [3]float64{1e5, 10}}
	big := Kernel{Name: "b", Class: ClassFFT, Flops: 1e9, Bytes: 1e9, Axes: [3]float64{1e9, 1e5}}
	ps, err := m.Resolve(small)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := m.Resolve(big)
	if err != nil {
		t.Fatal(err)
	}
	if !(pb.ComputeOcc > ps.ComputeOcc && pb.MemOcc > ps.MemOcc && pb.SMActivity > ps.SMActivity) {
		t.Fatalf("fill did not scale every response: small %+v big %+v", ps, pb)
	}
	// The saturated responses approach the class caps.
	ce := m.Classes[ClassFFT]
	if pb.MemOcc > ce.Memory.Cap || pb.SMActivity > ce.SMActivity.Cap {
		t.Fatalf("responses exceeded caps: %+v", pb)
	}
}

func TestResolveChainedAxes(t *testing.T) {
	// GEMM: each dimension saturates independently; shrinking any one
	// axis lowers the compute occupancy.
	m := DefaultEfficiency()
	base := Kernel{Name: "g", Class: ClassGEMM, Flops: 1, Axes: [3]float64{5000, 640, 640}}
	pb, err := m.Resolve(base)
	if err != nil {
		t.Fatal(err)
	}
	for axis := 0; axis < 3; axis++ {
		k := base
		k.Axes[axis] = base.Axes[axis] / 100
		p, err := m.Resolve(k)
		if err != nil {
			t.Fatal(err)
		}
		if p.ComputeOcc >= pb.ComputeOcc {
			t.Fatalf("shrinking axis %d did not lower occupancy", axis)
		}
	}
	// Memory has no active axes: constant.
	if pb.MemOcc != m.Classes[ClassGEMM].Memory.Cap {
		t.Fatalf("GEMM MemOcc %v, want the constant cap", pb.MemOcc)
	}
	// SM activity derives from compute (zero in the profile).
	if pb.SMActivity != 0 {
		t.Fatalf("GEMM SMActivity %v, want 0 (derive)", pb.SMActivity)
	}
}

func TestResolveOccFloor(t *testing.T) {
	m := DefaultEfficiency()
	k := Kernel{Name: "tiny", Class: ClassGEMM, Flops: 1, Axes: [3]float64{1, 1, 1}}
	p, err := m.Resolve(k)
	if err != nil {
		t.Fatal(err)
	}
	if p.ComputeOcc != m.OccFloor {
		t.Fatalf("degenerate occupancy %v, want floored to %v", p.ComputeOcc, m.OccFloor)
	}
}

func TestResolveLatencyChain(t *testing.T) {
	m := DefaultEfficiency()
	k := Kernel{Name: "eig", Class: ClassEig, Flops: 1, Launches: 10, LatencyScale: 12}
	p, err := m.Resolve(k)
	if err != nil {
		t.Fatal(err)
	}
	// launches × launch latency × class factor (eig: 4) × kernel scale.
	want := 10 * m.LaunchLatency * 4 * 12
	if math.Abs(p.Latency-want) > 1e-15 {
		t.Fatalf("latency %v, want %v", p.Latency, want)
	}
}

func TestEntropyScaleReference(t *testing.T) {
	e := EntropyModel{Ref: 0.5, Sensitivity: 0.24}
	if e.Scale(0) != 1 {
		t.Fatal("unspecified entropy must scale by exactly 1")
	}
	if s := e.Scale(0.5); s != 1 {
		t.Fatalf("reference entropy scales by %v, want 1", s)
	}
	lo, hi := e.Scale(0.1), e.Scale(0.9)
	if !(lo < 1 && 1 < hi) {
		t.Fatalf("entropy scale not monotone around the reference: %v, %v", lo, hi)
	}
}

// TestEntropyShiftsPower is the acceptance check for the entropy axis:
// a fixed work descriptor draws measurably different sustained power
// as only its operand entropy changes.
func TestEntropyShiftsPower(t *testing.T) {
	g := nominal()
	k := dgemmKernel()
	ref := g.UncappedPower(k)
	k.Entropy = 0.1 // low-entropy operands: fewer switching wires
	low := g.UncappedPower(k)
	k.Entropy = 0.9
	high := g.UncappedPower(k)
	if !(low < ref && ref < high) {
		t.Fatalf("entropy did not shift power: low %.1f ref %.1f high %.1f", low, ref, high)
	}
	// The shift is dynamic power only: several percent of the board,
	// not a static offset.
	if high-low < 10 || high-low > 120 {
		t.Fatalf("entropy swing %.1f W implausible", high-low)
	}
	// Duration is untouched: entropy changes watts, not work.
	k.Entropy = 0.1
	dLow := g.UncappedDuration(k)
	k.Entropy = 0.9
	dHigh := g.UncappedDuration(k)
	if dLow != dHigh {
		t.Fatal("entropy changed uncapped duration")
	}
}

func TestModelHashDistinguishesTables(t *testing.T) {
	a := DefaultEfficiency()
	b := DefaultEfficiency()
	if a.Hash() != b.Hash() {
		t.Fatal("identical tables hash differently")
	}
	c := DefaultEfficiency()
	ce := c.Classes[ClassGEMM]
	ce.Compute.Cap = 0.97
	c.Classes[ClassGEMM] = ce
	if c.Hash() == a.Hash() {
		t.Fatal("edited response did not change the hash")
	}
	d := DefaultEfficiency()
	d.Name = "other"
	if d.Hash() == a.Hash() {
		t.Fatal("renamed table did not change the hash")
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	a := DefaultEfficiency()
	blob, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var b EfficiencyModel
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// Behavioral equality on a spread of descriptors.
	r := []Kernel{
		{Name: "f", Class: ClassFFT, Flops: 1e12, Bytes: 1e11, Axes: [3]float64{2e6, 128}, Launches: 50, LatencyScale: 12},
		{Name: "g", Class: ClassGEMM, Flops: 1e12, Bytes: 1e10, Axes: [3]float64{512, 64, 96}, Launches: 1, LatencyScale: 12},
		{Name: "n", Class: ClassNonlocal, Flops: 1e10, Bytes: 2.5e9, Axes: [3]float64{1e10, 200}, Launches: 8, LatencyScale: 12, Entropy: 0.7},
	}
	for _, k := range r {
		pa, err := a.Resolve(k)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.Resolve(k)
		if err != nil {
			t.Fatal(err)
		}
		if pa != pb {
			t.Fatalf("round-tripped table resolves %q differently: %+v vs %+v", k.Name, pa, pb)
		}
	}
}

func TestModelValidate(t *testing.T) {
	if err := DefaultEfficiency().Validate(); err != nil {
		t.Fatal(err)
	}
	breakers := []func(*EfficiencyModel){
		func(m *EfficiencyModel) { m.Name = "" },
		func(m *EfficiencyModel) { m.OccFloor = 0 },
		func(m *EfficiencyModel) { m.OccFloor = math.NaN() },
		func(m *EfficiencyModel) { m.LaunchLatency = -1 },
		func(m *EfficiencyModel) { m.Entropy.Ref = 1.5 },
		func(m *EfficiencyModel) { m.Entropy.Sensitivity = math.Inf(1) },
		func(m *EfficiencyModel) { m.Classes = nil },
		func(m *EfficiencyModel) {
			ce := m.Classes[ClassFFT]
			ce.Compute.Cap = 0
			m.Classes[ClassFFT] = ce
		},
		func(m *EfficiencyModel) {
			ce := m.Classes[ClassFFT]
			ce.Memory.Cap = 1.5
			m.Classes[ClassFFT] = ce
		},
		func(m *EfficiencyModel) {
			ce := m.Classes[ClassGEMM]
			ce.Compute.Half[0] = math.NaN()
			m.Classes[ClassGEMM] = ce
		},
		func(m *EfficiencyModel) {
			ce := m.Classes[ClassEig]
			ce.LaunchFactor = -2
			m.Classes[ClassEig] = ce
		},
	}
	for i, brk := range breakers {
		m := DefaultEfficiency()
		brk(m)
		if err := m.Validate(); err == nil {
			t.Fatalf("breaker %d produced a valid table", i)
		}
	}
}
