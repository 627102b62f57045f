package node

import (
	"math"
	"slices"
	"testing"

	"vasppower/internal/hw/gpu"
	"vasppower/internal/hw/platform"
	"vasppower/internal/rng"
	"vasppower/internal/timeseries"
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
	wantMem, wantGPU := 0.0, 0.0
	for i := range p.GPUMems {
		wantMem += p.GPUMems[i]
		wantGPU += 300*(1-gpu.ModuleVRFrac) - p.GPUMems[i]
	}
	if got := n.DomainTrace(DomainMemory).PowerAt(2); !almostEq(got, wantMem) {
		t.Fatalf("memory scope = %v, want %v", got, wantMem)
	}
	if got := n.DomainTrace(DomainGPU).PowerAt(2); !almostEq(got, wantGPU) {
		t.Fatalf("gpu scope = %v, want %v", got, wantGPU)
	}
}

func TestRecordNilGPUMemsDefaultsToHBMIdle(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	n.RecordIdle(5)
	want := 0.0
	for _, g := range n.GPUs {
		want += g.HBMIdlePower()
	}
	if got := n.DomainTrace(DomainMemory).PowerAt(1); !almostEq(got, want) {
		t.Fatalf("idle memory scope = %v, want the HBM idle sum %v", got, want)
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

// TestDomainTraceStableAcrossRecord: every scope is a trace the node
// records into, so the pointer DomainTrace returns holds for the
// node's life — across records, resets and storage exchanges — and a
// cursor opened on it before recording reads what is recorded later,
// as the telemetry sampler's cursors do.
func TestDomainTraceStableAcrossRecord(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	scopes := make(map[Domain]*timeseries.Trace)
	cursors := make(map[Domain]*timeseries.Cursor)
	for _, d := range Domains() {
		scopes[d] = n.DomainTrace(d)
		cursors[d] = timeseries.NewCursor(scopes[d])
	}
	same := func(when string) {
		t.Helper()
		for _, d := range Domains() {
			if n.DomainTrace(d) != scopes[d] {
				t.Fatalf("DomainTrace(%s) moved %s", d, when)
			}
		}
	}
	n.RecordIdle(2)
	n.Record(2, busyPowers(n))
	same("after Record")
	for _, d := range Domains() {
		if got, want := cursors[d].MeanBetween(2, 4), scopes[d].PowerAt(3); got != want {
			t.Fatalf("cursor on %s read %v over the second record, want %v", d, got, want)
		}
	}
	n.ResetTracesReuse()
	same("after ResetTracesReuse")
	var bank TraceBank
	n.RecordIdle(1)
	n.ExchangeStorage(&bank)
	same("after ExchangeStorage")
	n.ResetTraces()
	same("after ResetTraces")
	for _, d := range Domains() {
		if len(scopes[d].Segments()) != 0 {
			t.Fatalf("%s scope after ResetTraces = %+v, want empty", d, scopes[d].Segments())
		}
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
					// Anything up to the board draw; Record clamps.
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

// TestRecordedScopesMatchDerivation: on random records the gpu and
// memory scopes Record sums equal, bit for bit, the scopes derived
// from per-device board and HBM traces by merging them after the
// fact — GPUMems omitted on some records (HBM idle power), and HBM
// shares above the die's part of the board draw, where the per-device
// clamp acts.
func TestRecordedScopesMatchDerivation(t *testing.T) {
	root := rng.New(91)
	for trial := 0; trial < 40; trial++ {
		r := rng.New(root.Uint64())
		n := New("nid001", platform.Default(), r.Split("node"))
		boards := make([]*timeseries.Trace, n.NumGPUs())
		hbms := make([]*timeseries.Trace, n.NumGPUs())
		for i := range boards {
			boards[i], hbms[i] = &timeseries.Trace{}, &timeseries.Trace{}
		}
		clamped := false
		for s := 0; s < 30; s++ {
			p := n.Idle()
			for i := range p.GPUs {
				// A coarse palette repeats powers, so equal-power runs
				// merge differently in every trace.
				p.GPUs[i] = 60 + float64(r.IntN(4))*100
			}
			if r.Float64() < 0.7 {
				p.GPUMems = make([]float64, len(p.GPUs))
				for i := range p.GPUMems {
					// Up to 1.2× the board draw: beyond its (1−vr) share
					// the device's core power clamps at zero.
					p.GPUMems[i] = r.Float64() * 1.2 * p.GPUs[i]
					clamped = clamped || p.GPUMems[i] > p.GPUs[i]*(1-gpu.ModuleVRFrac)
				}
			}
			n.Record(0.01+r.Float64(), p)
			end := n.TraceDuration()
			for i := range boards {
				boards[i].Append(end, p.GPUs[i])
				hbm := n.GPUs[i].HBMIdlePower()
				if p.GPUMems != nil {
					hbm = p.GPUMems[i]
				}
				hbms[i].Append(end, hbm)
			}
		}
		if trial == 0 && !clamped {
			t.Fatal("no record exercised the clamp")
		}
		wantGPU, wantMem := refScopes(boards, hbms)
		for _, c := range []struct {
			d    Domain
			want *timeseries.Trace
		}{{DomainGPU, wantGPU}, {DomainMemory, wantMem}} {
			if got := n.DomainTrace(c.d).Segments(); !slices.Equal(got, c.want.Segments()) {
				t.Fatalf("trial %d: %s scope %+v, derived %+v", trial, c.d, got, c.want.Segments())
			}
		}
	}
}

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-6 }
