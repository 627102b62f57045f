package sim

import (
	"testing"

	"vasppower/internal/obs"
)

// TestStepMetrics checks that fired events are counted when metrics are
// installed, and that the default uninstrumented engine counts nothing.
func TestStepMetrics(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	SetMetrics(m)
	defer SetMetrics(nil)

	e := New()
	fired := 0
	for i := 0; i < 10; i++ {
		e.After(float64(i+1), func() { fired++ })
	}
	e.Run()
	if fired != 10 {
		t.Fatalf("fired %d events, want 10", fired)
	}
	if got := m.Steps.Value(); got != 10 {
		t.Fatalf("sim.steps = %d, want 10", got)
	}

	SetMetrics(nil)
	e2 := New()
	e2.After(1, func() {})
	e2.Run()
	if got := m.Steps.Value(); got != 10 {
		t.Fatalf("uninstrumented engine moved the counter: %d", got)
	}
}
