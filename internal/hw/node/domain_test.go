package node

import (
	"math"
	"testing"

	"vasppower/internal/hw/gpu"
	"vasppower/internal/hw/platform"
	"vasppower/internal/rng"
)

func TestDomainsAndValidDomain(t *testing.T) {
	ds := Domains()
	if len(ds) != 4 {
		t.Fatalf("Domains() = %v, want 4 scopes", ds)
	}
	for _, d := range ds {
		if !ValidDomain(d) {
			t.Fatalf("ValidDomain(%q) = false", d)
		}
	}
	if ValidDomain("board") {
		t.Fatal("unknown domain accepted")
	}
}

func TestRecordGPUMems(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	p := n.Idle()
	p.GPUs = []float64{300, 300, 300, 300}
	p.GPUMems = []float64{80, 70, 60, 50}
	n.Record(4, p)
	for i := 0; i < n.NumGPUs(); i++ {
		if got := n.GPUMemTrace(i).PowerAt(2); !almostEq(got, p.GPUMems[i]) {
			t.Fatalf("gpu %d mem trace = %v, want %v", i, got, p.GPUMems[i])
		}
		core := coreTrace(&n.gpuTraces[i], &n.gpuMemTraces[i]).PowerAt(2)
		want := 300*(1-gpu.ModuleVRFrac) - p.GPUMems[i]
		if !almostEq(core, want) {
			t.Fatalf("gpu %d core trace = %v, want %v", i, core, want)
		}
	}
}

func TestRecordNilGPUMemsDefaultsToHBMIdle(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	n.RecordIdle(5)
	for i := 0; i < n.NumGPUs(); i++ {
		if got, want := n.GPUMemTrace(i).PowerAt(1), n.GPUs[i].HBMIdlePower(); !almostEq(got, want) {
			t.Fatalf("gpu %d idle mem trace = %v, want HBM idle %v", i, got, want)
		}
	}
}

func TestRecordGPUMemsLengthMismatchPanics(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	p := n.Idle()
	p.GPUMems = []float64{1, 2}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched GPUMems did not panic")
		}
	}()
	n.Record(1, p)
}

func TestDomainTraceAggregates(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	p := n.Idle()
	p.GPUs = []float64{350, 320, 310, 300}
	p.GPUMems = []float64{90, 85, 80, 75}
	n.Record(3, p)

	wantMem, wantModule, wantGPU := 0.0, 0.0, 0.0
	for i := range p.GPUs {
		wantMem += p.GPUMems[i]
		wantModule += p.GPUs[i]
		wantGPU += math.Max(0, p.GPUs[i]*(1-gpu.ModuleVRFrac)-p.GPUMems[i])
	}
	checks := []struct {
		d    Domain
		want float64
	}{
		{DomainMemory, wantMem},
		{DomainModule, wantModule},
		{DomainGPU, wantGPU},
		{DomainNode, n.TotalTrace().PowerAt(1)},
	}
	for _, c := range checks {
		if got := n.DomainTrace(c.d).PowerAt(1); !almostEq(got, c.want) {
			t.Fatalf("DomainTrace(%s) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestDomainTraceMemoizedAndInvalidated(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	n.RecordIdle(2)
	first := n.DomainTrace(DomainMemory)
	if n.DomainTrace(DomainMemory) != first {
		t.Fatal("DomainTrace not memoized between records")
	}
	n.RecordIdle(2)
	again := n.DomainTrace(DomainMemory)
	if again == first {
		t.Fatal("Record did not invalidate the domain cache")
	}
	if d := again.Duration(); !almostEq(d, 4) {
		t.Fatalf("rebuilt domain trace duration = %v, want 4", d)
	}
	n.ResetTraces()
	if d := n.DomainTrace(DomainMemory).Duration(); d != 0 {
		t.Fatalf("domain trace after reset = %v, want empty", d)
	}
}

func TestDomainTraceUnknownPanics(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown domain did not panic")
		}
	}()
	n.DomainTrace("board")
}

// Property: gpu + memory ≤ module ≤ node pointwise, for random
// recorded segments (including ones with GPUMems omitted).
func TestDomainInvariantProperty(t *testing.T) {
	root := rng.New(88)
	for trial := 0; trial < 30; trial++ {
		r := rng.New(root.Uint64())
		n := New("nid001", platform.Default(), r.Split("node"))
		for s := 0; s < 20; s++ {
			p := n.Idle()
			for i := range p.GPUs {
				p.GPUs[i] = 60 + r.Float64()*340
			}
			if r.Float64() < 0.7 {
				p.GPUMems = make([]float64, len(p.GPUs))
				for i := range p.GPUMems {
					// Anything up to the board draw; coreTrace clamps.
					p.GPUMems[i] = r.Float64() * p.GPUs[i]
				}
			}
			n.Record(0.1+r.Float64(), p)
		}
		gt := n.DomainTrace(DomainGPU)
		mem := n.DomainTrace(DomainMemory)
		mod := n.DomainTrace(DomainModule)
		nodeTr := n.DomainTrace(DomainNode)
		for x := 0.05; x < n.TraceDuration(); x += 0.21 {
			g, m, md, nd := gt.PowerAt(x), mem.PowerAt(x), mod.PowerAt(x), nodeTr.PowerAt(x)
			if g+m > md+1e-6 {
				t.Fatalf("trial %d t=%v: gpu %v + memory %v > module %v", trial, x, g, m, md)
			}
			if md > nd+1e-6 {
				t.Fatalf("trial %d t=%v: module %v > node %v", trial, x, md, nd)
			}
		}
	}
}

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-6 }
