package gpu

import (
	"math"
	"testing"

	"vasppower/internal/rng"
)

// dgemmKernel is a near-peak compute-bound work descriptor (large
// matrix multiply), the classic burn-in test the paper runs before
// VASP. The default table resolves dgemm-peak at 0.95/0.85.
func dgemmKernel() Kernel {
	n := 8192.0
	return Kernel{
		Class: ClassDGEMMPeak,
		Flops: 2 * n * n * n,
		Bytes: 3 * n * n * 8,
	}
}

// streamKernel is a pure bandwidth-bound descriptor (triad). At 24
// bytes and 2 flops per element the arithmetic intensity is 1/12
// flop/byte — deeply memory-bound; the table's stream-triad response
// keeps the SMs at 0.30 activity (mostly waiting on HBM).
func streamKernel() Kernel {
	n := 4e8 // elements
	return Kernel{
		Class: ClassStreamTriad,
		Flops: 2 * n,
		Bytes: 3 * n * 8,
	}
}

func nominal() *GPU { return New(A100SXM40GB(), nil, 0, nil, DefaultVariability()) }

// resolve is a test helper: profile or t.Fatal.
func resolve(t *testing.T, g *GPU, k Kernel) ExecProfile {
	t.Helper()
	p, err := g.Resolve(k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// allClasses lists every class of the default table, for property
// tests that draw random descriptors.
var allClasses = []KernelClass{
	ClassFFT, ClassExchangeFFT, ClassGEMM, ClassEig, ClassNonlocal,
	ClassVdW, ClassDGEMMPeak, ClassStreamTriad, ClassStencil, ClassSU3Force,
}

// randomKernel draws a random but valid work descriptor.
func randomKernel(r *rng.Stream) Kernel {
	return Kernel{
		Class:    allClasses[int(r.Uint64()%uint64(len(allClasses)))],
		Flops:    r.Float64() * 1e13,
		Bytes:    r.Float64() * 1e11,
		Axes:     [3]float64{r.Float64() * 1e7, r.Float64() * 500, r.Float64() * 100},
		Launches: math.Floor(r.Float64() * 1000),
		Entropy:  r.Float64(),
	}
}

func TestDGEMMNearTDP(t *testing.T) {
	g := nominal()
	ex := g.Run(dgemmKernel())
	if ex.Power < 380 || ex.Power > 400.0001 {
		t.Fatalf("DGEMM power = %.1f W, want ≈ TDP (380-400)", ex.Power)
	}
}

func TestStreamModeratePower(t *testing.T) {
	g := nominal()
	ex := g.Run(streamKernel())
	if ex.Power < 150 || ex.Power > 300 {
		t.Fatalf("STREAM power = %.1f W, want moderate (150-300)", ex.Power)
	}
	if ex.Capped {
		t.Fatal("STREAM should not hit the default cap")
	}
}

func TestIdlePowerNominal(t *testing.T) {
	g := nominal()
	if got := g.IdlePower(); math.Abs(got-52) > 1e-9 {
		t.Fatalf("idle power = %v, want 52", got)
	}
}

func TestSetPowerLimitValidation(t *testing.T) {
	g := nominal()
	if err := g.SetPowerLimit(250); err != nil {
		t.Fatal(err)
	}
	if g.PowerLimit() != 250 {
		t.Fatal("limit not applied")
	}
	if err := g.SetPowerLimit(99); err == nil {
		t.Fatal("limit below floor accepted")
	}
	if err := g.SetPowerLimit(401); err == nil {
		t.Fatal("limit above TDP accepted")
	}
	g.ResetPowerLimit()
	if g.PowerLimit() != 400 {
		t.Fatal("reset failed")
	}
}

func TestCapReducesPowerAndSlowsComputeBound(t *testing.T) {
	g := nominal()
	k := dgemmKernel()
	base := g.Run(k)
	for _, cap := range []float64{300, 200, 100} {
		if err := g.SetPowerLimit(cap); err != nil {
			t.Fatal(err)
		}
		ex := g.Run(k)
		if cap > 110 && ex.Power > cap+1e-6 {
			t.Fatalf("cap %v: power %v exceeds cap", cap, ex.Power)
		}
		if ex.Duration <= base.Duration {
			t.Fatalf("cap %v: compute-bound kernel did not slow (%.4f vs %.4f)",
				cap, ex.Duration, base.Duration)
		}
	}
}

func TestCapNonLinearity(t *testing.T) {
	// Halving power must cost much less than half the performance —
	// the paper's central observation. For a pure DGEMM, a 200 W cap
	// (50% of 400) should cost well under 50% performance.
	g := nominal()
	k := dgemmKernel()
	base := g.Run(k)
	_ = g.SetPowerLimit(200)
	capped := g.Run(k)
	slowdown := capped.Duration/base.Duration - 1
	if slowdown <= 0.05 || slowdown >= 0.5 {
		t.Fatalf("DGEMM at 200 W: slowdown %.1f%%, want in (5%%, 50%%)", slowdown*100)
	}
}

func TestMemoryBoundInsensitiveToModerateCap(t *testing.T) {
	g := nominal()
	k := streamKernel()
	base := g.Run(k)
	_ = g.SetPowerLimit(250)
	capped := g.Run(k)
	if capped.Duration > base.Duration*1.02 {
		t.Fatalf("memory-bound kernel slowed %.2f%% under a 250 W cap",
			(capped.Duration/base.Duration-1)*100)
	}
}

func TestHundredWattFloorOvershoot(t *testing.T) {
	// At the 100 W minimum cap, a heavy kernel cannot fit even at
	// minimum clock: power overshoots the cap (Fig. 10's 100 W bars).
	g := nominal()
	_ = g.SetPowerLimit(100)
	ex := g.Run(dgemmKernel())
	if ex.Power <= 100 || ex.Power > 120 {
		t.Fatalf("expected mild overshoot above 100 W, got %.1f", ex.Power)
	}
	if !ex.Capped {
		t.Fatal("expected the kernel to be throttled")
	}
	// A 300 W cap, by contrast, is held exactly.
	_ = g.SetPowerLimit(300)
	ex300 := g.Run(dgemmKernel())
	if ex300.Power > 300+1e-6 {
		t.Fatalf("300 W cap overshot: %.2f", ex300.Power)
	}
}

func TestLatencyBoundKernelCapInsensitive(t *testing.T) {
	// A tiny kernel dominated by launch latency: low power and almost
	// no response to a deep cap (the GaAsBi-64 mechanism). The launch
	// count puts ~100 µs of fixed latency against ~50 ns of work.
	g := nominal()
	k := Kernel{
		Class:    ClassVdW,
		Flops:    5e7,
		Bytes:    4e6,
		Axes:     [3]float64{5e7},
		Launches: 100.0 / 6.0,
	}
	base := g.Run(k)
	if base.Power > 150 {
		t.Fatalf("latency-bound kernel draws %.1f W, want low", base.Power)
	}
	_ = g.SetPowerLimit(100)
	capped := g.Run(k)
	if capped.Duration > base.Duration*1.05 {
		t.Fatalf("latency-bound kernel slowed %.2f%% at 100 W",
			(capped.Duration/base.Duration-1)*100)
	}
}

// Property: resolved-kernel power is monotone non-decreasing in clock
// fraction, for the classic kernels and for random descriptors across
// every class of the default table.
func TestPowerMonotoneInClock(t *testing.T) {
	g := nominal()
	kernels := []Kernel{dgemmKernel(), streamKernel()}
	r := rng.New(71)
	for i := 0; i < 60; i++ {
		kernels = append(kernels, randomKernel(r))
	}
	for _, k := range kernels {
		if k.Flops == 0 && k.Bytes == 0 && k.Launches == 0 {
			continue
		}
		p := resolve(t, g, k)
		prev := -1.0
		for c := g.Spec.MinClockFrac; c <= 1.0; c += 0.01 {
			pw := g.powerAt(k, p, c)
			if pw < prev-1e-9 {
				t.Fatalf("power not monotone in clock for %s at c=%v", k.Class, c)
			}
			prev = pw
		}
	}
}

// Property: duration is non-increasing in clock fraction.
func TestDurationMonotoneInClock(t *testing.T) {
	g := nominal()
	kernels := []Kernel{dgemmKernel(), streamKernel()}
	r := rng.New(72)
	for i := 0; i < 60; i++ {
		kernels = append(kernels, randomKernel(r))
	}
	for _, k := range kernels {
		if k.Flops == 0 && k.Bytes == 0 && k.Launches == 0 {
			continue
		}
		p := resolve(t, g, k)
		prev := math.Inf(1)
		for c := g.Spec.MinClockFrac; c <= 1.0; c += 0.01 {
			d := g.timeAt(k, p, c)
			if d > prev+1e-12 {
				t.Fatalf("duration not non-increasing in clock for %s", k.Class)
			}
			prev = d
		}
	}
}

// Property: for random descriptors and caps, Run never exceeds the
// effective cap unless it settled at minimum clock — and above
// lowCapThreshold the effective cap IS the nominal cap, so any cap
// ≥ 150 W that Run satisfies away from the clock floor is satisfied
// exactly. Duration never beats the uncapped duration.
func TestRunCapInvariantProperty(t *testing.T) {
	root := rng.New(2024)
	for trial := 0; trial < 500; trial++ {
		r := rng.New(root.Uint64())
		g := New(A100SXM40GB(), nil, 0, r.Split("gpu"), DefaultVariability())
		k := randomKernel(r.Split("kernel"))
		if k.Flops == 0 && k.Bytes == 0 && k.Launches == 0 {
			continue
		}
		base := g.Run(k)
		cap := 100 + r.Float64()*300
		if err := g.SetPowerLimit(cap); err != nil {
			t.Fatal(err)
		}
		ex := g.Run(k)
		if ex.Duration < base.Duration-1e-12 {
			t.Fatalf("trial %d: capped run faster than uncapped", trial)
		}
		effCap := cap
		if thr := g.lowCapThreshold(); cap < thr {
			effCap += 0.25 * (thr - cap) // control-loop slack at low caps
		} else if effCap != cap {
			t.Fatalf("trial %d: effective cap %v differs from nominal %v above lowCapThreshold", trial, effCap, cap)
		}
		if ex.Power > effCap+1e-6 && ex.ClockFrac > g.Spec.MinClockFrac+1e-9 {
			t.Fatalf("trial %d: cap %v exceeded (%.2f W) above min clock", trial, cap, ex.Power)
		}
		if ex.ClockFrac < g.Spec.MinClockFrac-1e-12 || ex.ClockFrac > 1 {
			t.Fatalf("trial %d: clock %v out of range", trial, ex.ClockFrac)
		}
	}
}

func TestVariabilityBounds(t *testing.T) {
	root := rng.New(5)
	for i := 0; i < 200; i++ {
		g := New(A100SXM40GB(), nil, i%4, root.Split("g"+string(rune('a'+i%26))+"x"), DefaultVariability())
		idle := g.IdlePower()
		if idle < 52*0.9-1e-9 || idle > 52*1.1+1e-9 {
			t.Fatalf("idle power %v outside variability clamp", idle)
		}
	}
}

func TestVariabilityIsDeterministic(t *testing.T) {
	a := New(A100SXM40GB(), nil, 0, rng.New(9).Split("gpu0"), DefaultVariability())
	b := New(A100SXM40GB(), nil, 0, rng.New(9).Split("gpu0"), DefaultVariability())
	if a.IdlePower() != b.IdlePower() {
		t.Fatal("same seed produced different devices")
	}
}

func TestKernelValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct {
		name string
		k    Kernel
	}{
		{"neg", Kernel{Class: ClassGEMM, Flops: -1}},
		{"nan-flops", Kernel{Class: ClassGEMM, Flops: nan}},
		{"inf-flops", Kernel{Class: ClassGEMM, Flops: inf}},
		{"nan-bytes", Kernel{Class: ClassGEMM, Flops: 1, Bytes: nan}},
		{"neg-inf-bytes", Kernel{Class: ClassGEMM, Flops: 1, Bytes: math.Inf(-1)}},
		{"nan-launches", Kernel{Class: ClassGEMM, Flops: 1, Launches: nan}},
		{"nan-axis", Kernel{Class: ClassGEMM, Flops: 1, Axes: [3]float64{1, nan, 1}}},
		{"inf-axis", Kernel{Class: ClassGEMM, Flops: 1, Axes: [3]float64{inf}}},
		{"neg-axis", Kernel{Class: ClassGEMM, Flops: 1, Axes: [3]float64{-1}}},
		{"nan-scale", Kernel{Class: ClassGEMM, Flops: 1, LatencyScale: nan}},
		{"nan-entropy", Kernel{Class: ClassGEMM, Flops: 1, Entropy: nan}},
		{"big-entropy", Kernel{Class: ClassGEMM, Flops: 1, Entropy: 1.5}},
		{"neg-entropy", Kernel{Class: ClassGEMM, Flops: 1, Entropy: -0.1}},
		{"classless", Kernel{Flops: 1}},
		{"empty", Kernel{Class: ClassGEMM}},
	}
	for _, b := range bad {
		if err := b.k.Validate(); err == nil {
			t.Fatalf("kernel %q should be invalid", b.name)
		}
	}
	good := Kernel{Class: ClassGEMM, Flops: 1, Axes: [3]float64{1, 1, 1}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunPanicsOnInvalidKernel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid kernel did not panic")
		}
	}()
	nominal().Run(Kernel{Class: ClassGEMM, Flops: math.NaN()})
}

func TestRunPanicsOnUnknownClass(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown class did not panic")
		}
	}()
	nominal().Run(Kernel{Class: "warp-drive", Flops: 1})
}

func TestMemoryBoundOvershootsDeepCap(t *testing.T) {
	// HBM power does not throttle with SM clocks: a bandwidth-bound
	// kernel under a 100 W cap keeps (almost) its full speed but
	// overshoots the cap — the "larger error" the paper reports at
	// the 100 W setting (§V-A).
	g := nominal()
	k := streamKernel()
	base := g.Run(k)
	_ = g.SetPowerLimit(100)
	capped := g.Run(k)
	if capped.Duration > base.Duration*1.05 {
		t.Fatalf("memory-bound kernel slowed %.1f%% at 100 W; HBM clock is cap-independent",
			(capped.Duration/base.Duration-1)*100)
	}
	if capped.Power < 130 {
		t.Fatalf("expected overshoot above 130 W, got %.1f", capped.Power)
	}
}

func BenchmarkRunCapped(b *testing.B) {
	g := nominal()
	_ = g.SetPowerLimit(200)
	k := dgemmKernel()
	for i := 0; i < b.N; i++ {
		g.Run(k)
	}
}

func TestClockLimitValidation(t *testing.T) {
	g := nominal()
	if err := g.SetClockLimitMHz(1000); err != nil {
		t.Fatal(err)
	}
	if got := g.ClockLimit(); math.Abs(got-1000.0/1410.0) > 1e-9 {
		t.Fatalf("clock limit = %v", got)
	}
	if err := g.SetClockLimitMHz(100); err == nil {
		t.Fatal("below-minimum clock accepted")
	}
	if err := g.SetClockLimitMHz(2000); err == nil {
		t.Fatal("above-maximum clock accepted")
	}
	g.ResetClockLimit()
	if g.ClockLimit() != 1 {
		t.Fatal("reset failed")
	}
}

func TestDVFSSlowsComputeBoundOnly(t *testing.T) {
	g := nominal()
	dg := g.Run(dgemmKernel())
	st := g.Run(streamKernel())
	if err := g.SetClockLimitMHz(1000); err != nil {
		t.Fatal(err)
	}
	dgLocked := g.Run(dgemmKernel())
	stLocked := g.Run(streamKernel())
	// Compute-bound work slows ∝ 1/clock.
	wantSlow := 1410.0 / 1000.0
	ratio := dgLocked.Duration / dg.Duration
	if math.Abs(ratio-wantSlow) > 0.02 {
		t.Fatalf("DGEMM slowdown %v, want ≈ %v", ratio, wantSlow)
	}
	// Memory-bound work barely moves (HBM clock untouched).
	if stLocked.Duration > st.Duration*1.02 {
		t.Fatalf("STREAM slowed %v under DVFS", stLocked.Duration/st.Duration)
	}
	// And power drops below the uncapped draw.
	if dgLocked.Power >= dg.Power {
		t.Fatal("DVFS did not reduce DGEMM power")
	}
}

func TestDVFSComposesWithPowerCap(t *testing.T) {
	// A power cap below what the locked clock draws still throttles
	// further; the solver works inside the DVFS ceiling.
	g := nominal()
	if err := g.SetClockLimitMHz(1200); err != nil {
		t.Fatal(err)
	}
	if err := g.SetPowerLimit(150); err != nil {
		t.Fatal(err)
	}
	ex := g.Run(dgemmKernel())
	if ex.Power > 151 {
		t.Fatalf("cap not honored under DVFS: %.1f W", ex.Power)
	}
	if ex.ClockFrac > g.ClockLimit()+1e-9 {
		t.Fatal("solver exceeded the DVFS ceiling")
	}
}

func TestDVFSPowerVariesAcrossKernels(t *testing.T) {
	// The §V point (Imes & Zhang [31]): a locked clock fixes
	// frequency, not power — different kernels still draw very
	// different power, so DVFS controls power only loosely, while a
	// power cap bounds it exactly.
	g := nominal()
	_ = g.SetClockLimitMHz(1200)
	dg := g.Run(dgemmKernel())
	st := g.Run(streamKernel())
	if math.Abs(dg.Power-st.Power) < 30 {
		t.Fatalf("expected divergent power under DVFS: %v vs %v", dg.Power, st.Power)
	}
}

func TestA10080GBVariant(t *testing.T) {
	s40, s80 := A100SXM40GB(), A100SXM80GB()
	if s80.HBMBytes != 2*s40.HBMBytes {
		t.Fatal("80 GB variant capacity wrong")
	}
	if s80.PeakMemBW <= s40.PeakMemBW {
		t.Fatal("HBM2e bandwidth should exceed the 40 GB part")
	}
	if s80.TDP != s40.TDP {
		t.Fatal("board power envelope should match")
	}
	// A bandwidth-bound kernel finishes faster on the 80 GB part.
	g40 := New(s40, nil, 0, nil, DefaultVariability())
	g80 := New(s80, nil, 0, nil, DefaultVariability())
	k := streamKernel()
	if g80.Run(k).Duration >= g40.Run(k).Duration {
		t.Fatal("HBM2e should speed up STREAM")
	}
}
