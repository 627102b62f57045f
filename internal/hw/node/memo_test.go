package node

import (
	"math"
	"slices"
	"testing"

	"vasppower/internal/hw/platform"
	"vasppower/internal/timeseries"
)

// The derived-trace caches must serve repeated sensor reads without
// recomputation, and must never serve stale data after the traces
// change.

func TestTotalTraceMemoized(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	n.RecordIdle(10)
	a := n.TotalTrace()
	if b := n.TotalTrace(); b != a {
		t.Fatal("TotalTrace recomputed between records; expected the memoized trace")
	}
	if g := n.GPUSumTrace(); g != n.GPUSumTrace() {
		t.Fatal("GPUSumTrace recomputed between records; expected the memoized trace")
	}
}

func TestTotalTraceInvalidatedByRecord(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	n.RecordIdle(10)
	before := n.TotalTrace()
	beforeGPU := n.GPUSumTrace()

	p := n.Idle()
	p.CPU = 250
	for i := range p.GPUs {
		p.GPUs[i] = 390
	}
	n.Record(5, p)

	after := n.TotalTrace()
	if after == before {
		t.Fatal("Record did not invalidate the TotalTrace cache")
	}
	if d := after.Duration(); math.Abs(d-15) > 1e-9 {
		t.Fatalf("post-record total duration = %v, want 15", d)
	}
	wantLate := 250 + n.MemIdlePower() + 4*390 + n.PeripheralPower()
	if got := after.PowerAt(12); math.Abs(got-wantLate) > 1e-6 {
		t.Fatalf("post-record total power = %v, want %v", got, wantLate)
	}
	afterGPU := n.GPUSumTrace()
	if afterGPU == beforeGPU {
		t.Fatal("Record did not invalidate the GPUSumTrace cache")
	}
	if got := afterGPU.PowerAt(12); math.Abs(got-4*390) > 1e-6 {
		t.Fatalf("post-record GPU sum = %v, want %v", got, 4*390.0)
	}
}

func TestTotalTraceInvalidatedByReset(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	n.RecordIdle(10)
	_ = n.TotalTrace()
	_ = n.GPUSumTrace()
	n.ResetTraces()
	if n.TotalTrace().Len() != 0 {
		t.Fatal("ResetTraces left a stale TotalTrace cache")
	}
	if n.GPUSumTrace().Len() != 0 {
		t.Fatal("ResetTraces left a stale GPUSumTrace cache")
	}
	// Recording after a reset rebuilds from scratch.
	n.RecordIdle(3)
	if d := n.TotalTrace().Duration(); math.Abs(d-3) > 1e-9 {
		t.Fatalf("post-reset total duration = %v, want 3", d)
	}
}

func TestZeroDurationRecordKeepsCache(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	n.RecordIdle(10)
	a := n.TotalTrace()
	n.RecordIdle(0) // ignored by Record; must not thrash the cache
	if b := n.TotalTrace(); b != a {
		t.Fatal("zero-duration record invalidated the cache")
	}
}

// TestTotalTraceStorageContract pins who may keep a TotalTrace: Record
// and ResetTraces only drop the memo, so a held trace keeps its
// segments; the arena resets (ResetTracesReuse, SwapTraces) recycle
// its storage (and GPUSumTrace's) into the next one, whose values are
// still those of a fresh merge.
func TestTotalTraceStorageContract(t *testing.T) {
	n := New("nid001", platform.Default(), nil)
	busy := n.Idle()
	busy.CPU = 250
	for i := range busy.GPUs {
		busy.GPUs[i] = 300 + float64(i)
	}
	n.RecordIdle(2)
	n.Record(3, busy)
	held := n.TotalTrace()
	want := append([]timeseries.Segment(nil), held.Segments()...)
	unchanged := func(when string) {
		t.Helper()
		if got := held.Segments(); !slices.Equal(got, want) {
			t.Fatalf("%s: held TotalTrace changed to %+v, was %+v", when, got, want)
		}
	}
	n.RecordIdle(1)
	_ = n.TotalTrace()
	unchanged("after Record")
	n.ResetTraces()
	n.Record(4, busy)
	_ = n.TotalTrace()
	unchanged("after ResetTraces")

	for _, reset := range []struct {
		name string
		do   func()
	}{
		{"ResetTracesReuse", n.ResetTracesReuse},
		{"SwapTraces", func() { n.SwapTraces(&TraceBank{}) }},
	} {
		before, beforeGPU := n.TotalTrace(), n.GPUSumTrace()
		reset.do()
		n.RecordIdle(1)
		n.Record(2, busy)
		got := n.TotalTrace()
		if got != before {
			t.Fatalf("%s: TotalTrace storage not recycled", reset.name)
		}
		gotGPU := n.GPUSumTrace()
		if gotGPU != beforeGPU {
			t.Fatalf("%s: GPUSumTrace storage not recycled", reset.name)
		}
		freshGPU := timeseries.Sum(n.GPUTrace(0), n.GPUTrace(1), n.GPUTrace(2), n.GPUTrace(3))
		if g, w := gotGPU.Segments(), freshGPU.Segments(); !slices.Equal(g, w) {
			t.Fatalf("%s: recycled GPUSumTrace %+v, fresh merge %+v", reset.name, g, w)
		}
		fresh := timeseries.Sum(n.CPUTrace(), n.MemTrace(), n.GPUTrace(0), n.GPUTrace(1), n.GPUTrace(2), n.GPUTrace(3)).
			AddConstant(n.PeripheralPower())
		if g, w := got.Segments(), fresh.Segments(); !slices.Equal(g, w) {
			t.Fatalf("%s: recycled TotalTrace %+v, fresh merge %+v", reset.name, g, w)
		}
	}
}

// TestExchangeStorageMovesStorage: ExchangeStorage leaves the node with
// empty traces and the bank with the node's storage, so a second node
// that takes the bank records into it — its first TotalTrace and
// GPUSumTrace are built in the first node's storage for them — with
// the values a fresh node records.
func TestExchangeStorageMovesStorage(t *testing.T) {
	record := func(n *Node) {
		busy := n.Idle()
		busy.CPU = 250
		for i := range busy.GPUs {
			busy.GPUs[i] = 300 + float64(i)
		}
		n.RecordIdle(2)
		n.Record(3, busy)
		n.RecordIdle(1)
	}
	var bank TraceBank
	a := New("nid001", platform.Default(), nil)
	record(a)
	total, gpuSum := a.TotalTrace(), a.GPUSumTrace()
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
	if got := b.TotalTrace(); got != total {
		t.Fatal("the bank's TotalTrace storage was not reused")
	}
	if got := b.GPUSumTrace(); got != gpuSum {
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

func BenchmarkTotalTrace(b *testing.B) {
	n := New("nid001", platform.Default(), nil)
	p := n.Idle()
	for i := 0; i < 2500; i++ {
		// Alternate powers so Append cannot merge segments away.
		q := p
		q.CPU = 100 + float64(i%7)*20
		q.GPUs = append([]float64(nil), p.GPUs...)
		for g := range q.GPUs {
			q.GPUs[g] = 80 + float64((i+g)%5)*60
		}
		n.Record(0.1, q)
	}
	b.Run("memoized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = n.TotalTrace()
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n.totalCache = nil
			_ = n.TotalTrace()
		}
	})
}
