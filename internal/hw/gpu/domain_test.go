package gpu

import (
	"math"
	"testing"

	"vasppower/internal/rng"
)

func TestHBMIdlePowerShare(t *testing.T) {
	g := nominal()
	want := HBMIdleFrac * g.Spec.IdleWatts
	if got := g.HBMIdlePower(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("HBMIdlePower = %v, want %v", got, want)
	}
	if g.HBMIdlePower() >= g.IdlePower() {
		t.Fatal("memory domain at idle must be a strict share of board idle")
	}
}

// Property: the HBM-domain share never exceeds board power, for
// classic and random kernels under random caps and clock limits, and
// stays at or above the HBM idle floor.
func TestMemPowerWithinBoardPower(t *testing.T) {
	root := rng.New(2025)
	for trial := 0; trial < 300; trial++ {
		r := rng.New(root.Uint64())
		g := New(A100SXM40GB(), nil, 0, r.Split("gpu"), DefaultVariability())
		k := randomKernel(r.Split("kernel"))
		if k.Flops == 0 && k.Bytes == 0 && k.Launches == 0 {
			continue
		}
		if r.Float64() < 0.5 {
			_ = g.SetPowerLimit(100 + r.Float64()*300)
		}
		ex := g.Run(k)
		if ex.MemPower > ex.Power+1e-9 {
			t.Fatalf("trial %d: MemPower %.2f exceeds board power %.2f", trial, ex.MemPower, ex.Power)
		}
		if ex.MemPower < g.HBMIdlePower()-1e-9 {
			t.Fatalf("trial %d: MemPower %.2f below HBM idle floor %.2f", trial, ex.MemPower, g.HBMIdlePower())
		}
	}
}

func TestMemPowerTracksBandwidthBoundKernels(t *testing.T) {
	g := nominal()
	dg := g.Run(dgemmKernel())
	st := g.Run(streamKernel())
	// STREAM saturates HBM: its memory-domain share of board power
	// must far exceed DGEMM's (which burns its budget in the SMs).
	if st.MemPower/st.Power <= dg.MemPower/dg.Power {
		t.Fatalf("memory-domain share: stream %.2f ≤ dgemm %.2f",
			st.MemPower/st.Power, dg.MemPower/dg.Power)
	}
	// And a deep power cap leaves HBM draw (nearly) untouched — the
	// HBM clock does not throttle with SM clocks.
	_ = g.SetPowerLimit(100)
	capped := g.Run(streamKernel())
	if capped.MemPower < st.MemPower*0.9 {
		t.Fatalf("HBM power collapsed under SM cap: %.1f vs %.1f", capped.MemPower, st.MemPower)
	}
}
