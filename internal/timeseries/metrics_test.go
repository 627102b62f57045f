package timeseries

import (
	"testing"

	"vasppower/internal/obs"
)

func TestMetricsCountSumSegmentsAndSamples(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetrics(NewMetrics(reg))
	defer SetMetrics(nil)

	a := &Trace{}
	a.Append(1, 100)
	a.Append(1, 200)
	b := &Trace{}
	b.Append(1.5, 50)
	sum := Sum(a, b)

	snap := reg.Snapshot()
	if got := snap.Counters["timeseries.sum_segments"]; got != int64(sum.Len()) {
		t.Fatalf("sum_segments = %d, want %d", got, sum.Len())
	}

	win := sum.Sample(0.5)
	snap = reg.Snapshot()
	want := int64(win.Len())
	if got := snap.Counters["timeseries.samples"]; got != want {
		t.Fatalf("samples = %d, want %d", got, want)
	}
}

func TestMetricsDetachedIsNoop(t *testing.T) {
	SetMetrics(nil)
	a := &Trace{}
	a.Append(2, 100)
	// Must not panic and must not require a registry.
	_ = Sum(a)
	_ = a.Sample(0.5)
}

func TestNewMetricsNilRegistry(t *testing.T) {
	m := NewMetrics(nil)
	// All-no-op but safe to install and drive.
	SetMetrics(m)
	defer SetMetrics(nil)
	a := &Trace{}
	a.Append(1, 10)
	_ = Sum(a)
	_ = a.Sample(0.25)
}
