package core

import (
	"fmt"
	"reflect"
	"testing"

	"vasppower/internal/hw/platform"
	"vasppower/internal/telemetry"
	"vasppower/internal/workloads"
)

func benchByName(t testing.TB, name string) workloads.Benchmark {
	t.Helper()
	b, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("benchmark %q not found", name)
	}
	return b
}

// TestSweepContextMatchesMeasure is the differential contract at the
// profile level: MeasureCap on one reusable context and an independent
// Measure per point are both deep-equal to the step-by-step oracle's
// profile — across platforms, methods, entropy, and repeats, in
// arbitrary point order.
func TestSweepContextMatchesMeasure(t *testing.T) {
	cases := []struct {
		name     string
		platform string // "" = default
		bench    string
		repeats  int
		entropy  float64
		caps     []float64
	}{
		{"default-hse", "", "B.hR105_hse", 1, 0, []float64{0, 250, 400, 250}},
		{"default-rmm-repeats", "", "PdO2", 2, 0, []float64{0, 300}},
		{"default-entropy", "", "B.hR105_hse", 1, 0.6, []float64{0, 350}},
		{"500w-board", "a100-80gb-500w", "GaAsBi-64", 1, 0, []float64{0, 320}},
		{"h100", "h100-sxm", "B.hR105_hse", 2, 0.3, []float64{0, 450}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := MeasureSpec{
				Bench:   benchByName(t, tc.bench),
				Nodes:   1,
				Repeats: tc.repeats,
				Seed:    7,
				Entropy: tc.entropy,
			}
			if tc.platform != "" {
				p, err := platform.Get(tc.platform)
				if err != nil {
					t.Fatal(err)
				}
				spec.Platform = p
			}
			sctx, err := NewSweepContext(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer sctx.Close()
			for _, capW := range tc.caps {
				pt := spec
				pt.CapW = capW
				want, err := oracleMeasure(pt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sctx.MeasureCap(capW)
				if err != nil {
					t.Fatal(err)
				}
				profilesEqual(t, fmt.Sprintf("cap %v W: MeasureCap", capW), want, got)
				got, err = Measure(pt)
				if err != nil {
					t.Fatal(err)
				}
				profilesEqual(t, fmt.Sprintf("cap %v W: Measure", capW), want, got)
			}
		})
	}
}

// profilesEqual demands deep equality of two profiles, neither of
// which has had its modes read.
func profilesEqual(t *testing.T, label string, want, got JobProfile) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: profile diverges from the oracle\n got runtime %v energy %v\nwant runtime %v energy %v",
			label, got.Runtime, got.EnergyJ, want.Runtime, want.EnergyJ)
	}
}

// TestSweepContextOracleFallback: a context returns construction
// errors as they are (Measure raises the same message) and holds no
// sweep after one, and a telemetry sink changes nothing: the context
// still sweeps on its arena, and every point still equals the oracle.
func TestSweepContextOracleFallback(t *testing.T) {
	bad := MeasureSpec{}
	arenas := workloads.ActiveSweeps()
	sctx, errCtx := NewSweepContext(bad)
	_, errMeasure := Measure(bad)
	if errMeasure == nil || errCtx == nil || sctx != nil {
		t.Fatal("invalid spec accepted")
	}
	if errCtx.Error() != errMeasure.Error() {
		t.Fatalf("context error %q, Measure %q", errCtx, errMeasure)
	}
	if n := workloads.ActiveSweeps(); n != arenas {
		t.Fatalf("%d sweep arenas live after a failed open, want %d", n, arenas)
	}

	s, err := telemetry.NewSampler(telemetry.NewHub(nil), 2)
	if err != nil {
		t.Fatal(err)
	}
	spec := MeasureSpec{Bench: benchByName(t, "PdO2"), Seed: 5, Sink: s}
	sctx, err = NewSweepContext(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sctx.Close()
	for _, capW := range []float64{0, 260} {
		got, err := sctx.MeasureCap(capW)
		if err != nil {
			t.Fatal(err)
		}
		if n := workloads.ActiveSweeps(); n != arenas+1 {
			t.Fatalf("%d sweep arenas live with a telemetry sink active, want %d", n, arenas+1)
		}
		pt := spec
		pt.CapW = capW
		want, err := oracleMeasure(pt)
		if err != nil {
			t.Fatal(err)
		}
		profilesEqual(t, fmt.Sprintf("telemetry, cap %v W", capW), want, got)
	}
}

// TestSweepContextClosed: MeasureCap after Close fails; Close is
// idempotent.
func TestSweepContextClosed(t *testing.T) {
	sctx, err := NewSweepContext(MeasureSpec{Bench: benchByName(t, "PdO2")})
	if err != nil {
		t.Fatal(err)
	}
	sctx.Close()
	sctx.Close()
	if _, err := sctx.MeasureCap(0); err == nil {
		t.Fatal("closed context measured")
	}
}

// TestNonBindingCapNormalization pins the cache-identity rule: CapW 0,
// TDP, and above-TDP are one measurement.
func TestNonBindingCapNormalization(t *testing.T) {
	tdp := platform.Default().GPU.TDP
	spec := MeasureSpec{Bench: benchByName(t, "PdO2"), Seed: 3}
	want, err := Measure(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, capW := range []float64{tdp, tdp + 100, 1e12} {
		pt := spec
		pt.CapW = capW
		got, err := Measure(pt)
		if err != nil {
			t.Fatalf("cap %v W: %v", capW, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("cap %v W not normalized to uncapped", capW)
		}
	}
	// A binding cap still binds.
	pt := spec
	pt.CapW = tdp - 50
	got, err := Measure(pt)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(want, got) {
		t.Fatalf("cap %v W should differ from uncapped", pt.CapW)
	}
}

// BenchmarkCapSweep is the sweep engine's headline grid: a cold
// 16-point cap sweep as one Measure per point versus one sweep context
// (resolve once, re-cap per point), at single-shot
// and at the paper's 5-repeat measurement protocol, plus the
// solve-only steady state whose allocations must stay at zero.
func BenchmarkCapSweep(b *testing.B) {
	caps := make([]float64, 16)
	for i := range caps {
		caps[i] = 180 + 14*float64(i) // 180..390 W, all binding on A100
	}
	specFor := func(repeats int) MeasureSpec {
		return MeasureSpec{Bench: benchByName(b, "B.hR105_hse"), Seed: 7, Repeats: repeats}
	}

	for _, repeats := range []int{1, 5} {
		spec := specFor(repeats)
		// engine=oracle is a full Measure per point; the name is kept
		// so the rows compare against earlier results.
		b.Run(fmt.Sprintf("points=16/repeats=%d/engine=oracle", repeats), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, capW := range caps {
					pt := spec
					pt.CapW = capW
					if _, err := Measure(pt); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("points=16/repeats=%d/engine=incremental", repeats), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sctx, err := NewSweepContext(spec)
				if err != nil {
					b.Fatal(err)
				}
				for _, capW := range caps {
					if _, err := sctx.MeasureCap(capW); err != nil {
						b.Fatal(err)
					}
				}
				sctx.Close()
			}
		})
	}
	spec := specFor(0)

	// The cap solve + trace recording alone, without the profiling pass
	// (KDE, sampling): this is the arena's zero-allocation claim.
	b.Run("phase=solve-only/profile=off", func(b *testing.B) {
		sw, err := workloads.NewSweep(workloads.RunSpec{Bench: spec.Bench, Nodes: 1, Repeats: 1, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		defer sw.Close()
		if _, err := sw.RunCap(caps[0]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sw.RunCap(caps[i%len(caps)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The per-point marginal cost once the context is warm: cap solve +
	// trace recording + profiling only.
	b.Run("phase=solve-only", func(b *testing.B) {
		sctx, err := NewSweepContext(spec)
		if err != nil {
			b.Fatal(err)
		}
		defer sctx.Close()
		if _, err := sctx.MeasureCap(caps[0]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sctx.MeasureCap(caps[i%len(caps)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMeasureOnePoint is the cold single-measurement path: one
// uncapped Measure (schedule build, allocation, solve, profile) on
// benchmarks spanning a small RMM run, a many-kernel RMM run, and a
// hybrid-functional run.
func BenchmarkMeasureOnePoint(b *testing.B) {
	for _, name := range []string{"PdO2", "GaAsBi-64", "Si256_hse"} {
		spec := MeasureSpec{Bench: benchByName(b, name), Seed: 7}
		b.Run("bench="+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Measure(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMeasureNodeMatchesFull: a node-resolution measurement runs the
// same sweep as a full one, so its node profile (series, summary,
// modes), runtime, all-node energy, name and interval keep the full
// profile's bits, the other profiles stay zero, and the disk codec
// round-trips it.
func TestMeasureNodeMatchesFull(t *testing.T) {
	cases := []struct {
		bench   string
		nodes   int
		repeats int
		capW    float64
	}{
		{"PdO2", 1, 1, 0},
		{"B.hR105_hse", 2, 1, 250},
		{"GaAsBi-64", 1, 2, 300},
		{"Si128_acfdtr", 2, 2, 0},
	}
	var a Arena
	for _, tc := range cases {
		label := fmt.Sprintf("%s nodes=%d repeats=%d cap=%v", tc.bench, tc.nodes, tc.repeats, tc.capW)
		spec := MeasureSpec{Bench: benchByName(t, tc.bench), Nodes: tc.nodes, Repeats: tc.repeats, CapW: tc.capW, Seed: 11}
		full, err := MeasureIn(&a, spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MeasureNodeIn(&a, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(reflect.ValueOf(viewOf(got.NodeTotal)), reflect.ValueOf(viewOf(full.NodeTotal))) {
			t.Fatalf("%s: node profile differs from the full measurement's", label)
		}
		head := func(jp JobProfile) []float64 { return []float64{jp.SamplingInterval, jp.Runtime, jp.EnergyJ} }
		if got.Name != full.Name || !bitEqual(reflect.ValueOf(head(got)), reflect.ValueOf(head(full))) {
			t.Fatalf("%s: name/interval/runtime/energy %q %v, full %q %v", label, got.Name, head(got), full.Name, head(full))
		}
		if got.GPUs != nil || !reflect.DeepEqual([]Profile{got.CPU, got.Mem, got.GPUSum}, make([]Profile, 3)) {
			t.Fatalf("%s: a node-resolution profile filled more than NodeTotal", label)
		}
		roundTrip(t, label, got)
	}
}
