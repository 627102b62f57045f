package node

import (
	"slices"
	"testing"

	"vasppower/internal/hw/platform"
	"vasppower/internal/timeseries"
)

// The node sensor and the GPU board sum are recorded with the
// components, on the node's one clock: every trace holds each instant
// as the same float, and the sensors hold exactly the sums a merge of
// the components computes.

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
	}
	for i := 0; i < n.NumGPUs(); i++ {
		traces["gpu"] = n.GPUTrace(i)
		traces["gpu memory"] = n.GPUMemTrace(i)
		for name, tr := range traces {
			if d := tr.Duration(); d != clock || d != n.TraceDuration() {
				t.Fatalf("%s trace ends at %v, node clock %v, want %v", name, d, n.TraceDuration(), clock)
			}
		}
	}

	gpus := []*timeseries.Trace{n.GPUTrace(0), n.GPUTrace(1), n.GPUTrace(2), n.GPUTrace(3)}
	if g, w := n.GPUSumTrace().Segments(), timeseries.Sum(gpus...).Segments(); !slices.Equal(g, w) {
		t.Fatalf("GPUSumTrace %+v, merged GPUs %+v", g, w)
	}
	merged := timeseries.Sum(append([]*timeseries.Trace{n.CPUTrace(), n.MemTrace()}, gpus...)...).
		Map(func(p float64) float64 { return p + n.PeripheralPower() })
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
	if n.TotalTrace().Len() != 0 {
		t.Fatal("ResetTraces left a stale TotalTrace")
	}
	if n.GPUSumTrace().Len() != 0 {
		t.Fatal("ResetTraces left a stale GPUSumTrace")
	}
	// Recording after a reset rebuilds from scratch.
	n.RecordIdle(3)
	if d := n.TotalTrace().Duration(); d != 3 {
		t.Fatalf("post-reset total duration = %v, want 3", d)
	}
}

func TestZeroDurationRecordKeepsCache(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	n.RecordIdle(10)
	a := n.DomainTrace(DomainMemory)
	n.RecordIdle(0) // ignored by Record; must not thrash the cache
	if b := n.DomainTrace(DomainMemory); b != a {
		t.Fatal("zero-duration record invalidated the cache")
	}
}

// TestExchangeStorageMovesStorage: ExchangeStorage leaves the node with
// empty traces and the bank with the node's storage, so a second node
// that takes the bank records into it — its node sensor and GPU sum
// included — with the values a fresh node records.
func TestExchangeStorageMovesStorage(t *testing.T) {
	record := func(n *Node) {
		n.RecordIdle(2)
		n.Record(3, busyPowers(n))
		n.RecordIdle(1)
	}
	var bank TraceBank
	a := New("nid001", platform.Default(), nil)
	record(a)
	total, gpuSum := a.TotalTrace().Segments(), a.GPUSumTrace().Segments()
	a.ExchangeStorage(&bank)
	if a.TraceDuration() != 0 || a.TotalTrace().Len() != 0 || a.GPUSumTrace().Len() != 0 {
		t.Fatal("ExchangeStorage left recorded traces on the node")
	}

	b := New("nid002", platform.Default(), nil)
	b.ExchangeStorage(&bank)
	if b.TraceDuration() != 0 {
		t.Fatal("the bank handed back recorded segments")
	}
	record(b)
	if got := b.TotalTrace().Segments(); &got[0] != &total[0] {
		t.Fatal("the bank's TotalTrace storage was not reused")
	}
	if got := b.GPUSumTrace().Segments(); &got[0] != &gpuSum[0] {
		t.Fatal("the bank's GPUSumTrace storage was not reused")
	}
	fresh := New("nid002", platform.Default(), nil)
	record(fresh)
	for _, tr := range []struct {
		name      string
		got, want *timeseries.Trace
	}{
		{"total", b.TotalTrace(), fresh.TotalTrace()},
		{"gpu sum", b.GPUSumTrace(), fresh.GPUSumTrace()},
		{"cpu", b.CPUTrace(), fresh.CPUTrace()},
		{"gpu3", b.GPUTrace(3), fresh.GPUTrace(3)},
		{"gpu3 memory", b.GPUMemTrace(3), fresh.GPUMemTrace(3)},
	} {
		if !slices.Equal(tr.got.Segments(), tr.want.Segments()) {
			t.Fatalf("%s: recorded into the bank %+v, fresh %+v", tr.name, tr.got.Segments(), tr.want.Segments())
		}
	}
}

// BenchmarkRecord times a 2,500-step run into reused storage: every
// component trace plus the node sensor and the GPU sum.
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.ResetTracesReuse()
		for _, p := range steps {
			n.Record(0.1, p)
		}
	}
}
