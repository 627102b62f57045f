package timeseries

import (
	"testing"

	"vasppower/internal/obs"
)

func TestMetricsCountSamples(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetrics(NewMetrics(reg))
	defer SetMetrics(nil)

	a := &Trace{}
	a.Append(1, 100)
	a.Append(2, 200)
	win := a.Sample(0.5)
	part := a.SampleWindow(0.5, 1.5, 0.5)

	want := int64(win.Len() + part.Len())
	if got := reg.Snapshot().Counters["timeseries.samples"]; got != want {
		t.Fatalf("samples = %d, want %d", got, want)
	}
}

func TestMetricsDetachedIsNoop(t *testing.T) {
	SetMetrics(nil)
	a := &Trace{}
	a.Append(2, 100)
	// Must not panic and must not require a registry.
	_ = a.Sample(0.5)
}

func TestNewMetricsNilRegistry(t *testing.T) {
	m := NewMetrics(nil)
	// All-no-op but safe to install and drive.
	SetMetrics(m)
	defer SetMetrics(nil)
	a := &Trace{}
	a.Append(1, 10)
	_ = a.Sample(0.25)
}
