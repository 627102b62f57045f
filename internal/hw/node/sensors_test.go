package node

import (
	"slices"
	"testing"

	"vasppower/internal/hw/platform"
	"vasppower/internal/timeseries"
)

// The node sensor, the GPU board sum and the NVML gpu and memory
// scopes are recorded with the components, on the node's one clock:
// every trace holds each instant as the same float, and the sensors
// hold exactly the sums a merge of the components computes.

// busyPowers returns an active-phase snapshot: a busy CPU and GPUs
// drawing distinct powers.
func busyPowers(n *Node) ComponentPowers {
	p := n.Idle()
	p.CPU = 250
	for i := range p.GPUs {
		p.GPUs[i] = 300 + float64(i)
	}
	return p
}

// TestRecordSensorsOnOneClock: after any sequence of records, every
// trace ends at the node's clock reading bit for bit — durations that
// do not add exactly in floating point included — and the node sensor
// and the GPU sum equal the merge of the traces they sum, segment for
// segment.
func TestRecordSensorsOnOneClock(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	n.RecordIdle(10)
	p := n.Idle()
	p.CPU = 250
	for i := range p.GPUs {
		p.GPUs[i] = 390
	}
	n.Record(5, p)
	if d := n.TotalTrace().Duration(); d != 15 {
		t.Fatalf("post-record total duration = %v, want 15", d)
	}
	wantLate := 250 + n.MemIdlePower() + 4*390 + n.PeripheralPower()
	if got := n.TotalTrace().PowerAt(12); got != wantLate {
		t.Fatalf("post-record total power = %v, want %v", got, wantLate)
	}
	if got := n.GPUSumTrace().PowerAt(12); got != 4*390 {
		t.Fatalf("post-record GPU sum = %v, want %v", got, 4*390.0)
	}

	clock := 15.0
	busy := busyPowers(n)
	for i := 0; i < 30; i++ {
		dur := 0.1 + 0.01*float64(i)
		clock += dur
		if i%3 == 0 {
			n.RecordIdle(dur)
		} else {
			n.Record(dur, busy)
		}
	}
	traces := map[string]*timeseries.Trace{
		"cpu": n.CPUTrace(), "mem": n.MemTrace(), "total": n.TotalTrace(), "gpu sum": n.GPUSumTrace(),
		"gpu scope": n.DomainTrace(DomainGPU), "memory scope": n.DomainTrace(DomainMemory),
	}
	for i := 0; i < n.NumGPUs(); i++ {
		traces["gpu"] = n.GPUTrace(i)
		for name, tr := range traces {
			if d := tr.Duration(); d != clock || d != n.TraceDuration() {
				t.Fatalf("%s trace ends at %v, node clock %v, want %v", name, d, n.TraceDuration(), clock)
			}
		}
	}

	gpus := []*timeseries.Trace{n.GPUTrace(0), n.GPUTrace(1), n.GPUTrace(2), n.GPUTrace(3)}
	if g, w := n.GPUSumTrace().Segments(), refSum(gpus...).Segments(); !slices.Equal(g, w) {
		t.Fatalf("GPUSumTrace %+v, merged GPUs %+v", g, w)
	}
	merged := refMap(refSum(append([]*timeseries.Trace{n.CPUTrace(), n.MemTrace()}, gpus...)...),
		func(p float64) float64 { return p + n.PeripheralPower() })
	if g, w := n.TotalTrace().Segments(), merged.Segments(); !slices.Equal(g, w) {
		t.Fatalf("TotalTrace %+v, merged components %+v", g, w)
	}
}

func TestTotalTraceInvalidatedByReset(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	n.RecordIdle(10)
	_ = n.TotalTrace()
	_ = n.GPUSumTrace()
	n.ResetTraces()
	if len(n.TotalTrace().Segments()) != 0 {
		t.Fatal("ResetTraces left a stale TotalTrace")
	}
	if len(n.GPUSumTrace().Segments()) != 0 {
		t.Fatal("ResetTraces left a stale GPUSumTrace")
	}
	// Recording after a reset rebuilds from scratch.
	n.RecordIdle(3)
	if d := n.TotalTrace().Duration(); d != 3 {
		t.Fatalf("post-reset total duration = %v, want 3", d)
	}
}

// TestZeroDurationRecordChangesNoScope: Record ignores a zero-duration
// step, so every scope keeps its pointer and its segments, the node
// clock included.
func TestZeroDurationRecordChangesNoScope(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	n.RecordIdle(2)
	n.Record(2, busyPowers(n))
	scopes := make(map[Domain]*timeseries.Trace)
	segs := make(map[Domain][]timeseries.Segment)
	for _, d := range Domains() {
		scopes[d] = n.DomainTrace(d)
		segs[d] = slices.Clone(scopes[d].Segments())
	}
	n.Record(0, busyPowers(n))
	n.RecordIdle(0)
	for _, d := range Domains() {
		if n.DomainTrace(d) != scopes[d] {
			t.Fatalf("zero-duration record moved DomainTrace(%s)", d)
		}
		if !slices.Equal(scopes[d].Segments(), segs[d]) {
			t.Fatalf("zero-duration record changed %s: %+v, want %+v", d, scopes[d].Segments(), segs[d])
		}
	}
	if got := n.TraceDuration(); got != 4 {
		t.Fatalf("clock after zero-duration records = %v, want 4", got)
	}
}

// TestExchangeStorageMovesStorage: ExchangeStorage leaves the node with
// empty traces and the bank with the node's storage, so a second node
// that takes the bank records into it — its node sensor, GPU sum and
// gpu and memory scopes included — with the values a fresh node
// records.
func TestExchangeStorageMovesStorage(t *testing.T) {
	record := func(n *Node) {
		n.RecordIdle(2)
		n.Record(3, busyPowers(n))
		n.RecordIdle(1)
	}
	var bank TraceBank
	a := New("nid001", platform.Default(), nil)
	record(a)
	sensors := []struct {
		name string
		tr   func(*Node) *timeseries.Trace
	}{
		{"TotalTrace", (*Node).TotalTrace},
		{"GPUSumTrace", (*Node).GPUSumTrace},
		{"gpu scope", func(n *Node) *timeseries.Trace { return n.DomainTrace(DomainGPU) }},
		{"memory scope", func(n *Node) *timeseries.Trace { return n.DomainTrace(DomainMemory) }},
	}
	storage := make([][]timeseries.Segment, len(sensors))
	for i, s := range sensors {
		storage[i] = s.tr(a).Segments()
	}
	a.ExchangeStorage(&bank)
	if a.TraceDuration() != 0 {
		t.Fatal("ExchangeStorage left recorded traces on the node")
	}
	for _, s := range sensors {
		if len(s.tr(a).Segments()) != 0 {
			t.Fatalf("ExchangeStorage left a recorded %s on the node", s.name)
		}
	}

	b := New("nid002", platform.Default(), nil)
	b.ExchangeStorage(&bank)
	if b.TraceDuration() != 0 {
		t.Fatal("the bank handed back recorded segments")
	}
	record(b)
	fresh := New("nid002", platform.Default(), nil)
	record(fresh)
	for i, s := range sensors {
		if got := s.tr(b).Segments(); &got[0] != &storage[i][0] {
			t.Fatalf("the bank's %s storage was not reused", s.name)
		}
		if got, want := s.tr(b).Segments(), s.tr(fresh).Segments(); !slices.Equal(got, want) {
			t.Fatalf("%s: recorded into the bank %+v, fresh %+v", s.name, got, want)
		}
	}
	for _, tr := range []struct {
		name      string
		got, want *timeseries.Trace
	}{
		{"cpu", b.CPUTrace(), fresh.CPUTrace()},
		{"gpu3", b.GPUTrace(3), fresh.GPUTrace(3)},
	} {
		if !slices.Equal(tr.got.Segments(), tr.want.Segments()) {
			t.Fatalf("%s: recorded into the bank %+v, fresh %+v", tr.name, tr.got.Segments(), tr.want.Segments())
		}
	}
}

// BenchmarkRecord times a 2,500-step run into reused storage: every
// component trace plus the node sensor, the GPU sum and the gpu and
// memory scopes.
func BenchmarkRecord(b *testing.B) {
	n := New("nid001", platform.Default(), nil)
	steps := make([]ComponentPowers, 2500)
	for i := range steps {
		// Alternate powers so Append cannot merge segments away.
		p := n.Idle()
		p.CPU = 100 + float64(i%7)*20
		for g := range p.GPUs {
			p.GPUs[g] = 80 + float64((i+g)%5)*60
		}
		steps[i] = p
	}
	record := func() {
		n.ResetTracesReuse()
		for _, p := range steps {
			n.Record(0.1, p)
		}
	}
	record() // grow the trace storage untimed: every op reuses it
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		record()
	}
}
