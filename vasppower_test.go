package vasppower_test

import (
	"math"
	"testing"

	"vasppower"
)

func TestBenchmarksSuite(t *testing.T) {
	suite := vasppower.Benchmarks()
	if len(suite) != 7 {
		t.Fatalf("suite = %d benchmarks, want 7", len(suite))
	}
	names := vasppower.BenchmarkNames()
	if names[0] != "Si256_hse" || names[6] != "Si128_acfdtr" {
		t.Fatalf("names = %v", names)
	}
	if _, ok := vasppower.BenchmarkByName("PdO4"); !ok {
		t.Fatal("PdO4 missing")
	}
}

func TestMeasurePublicAPI(t *testing.T) {
	b, _ := vasppower.BenchmarkByName("B.hR105_hse")
	jp, err := vasppower.Measure(vasppower.MeasureSpec{Bench: b, Nodes: 1, Repeats: 1, CapW: 0, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	mode, ok := jp.NodeTotal.HighMode()
	if !ok {
		t.Fatal("no node mode")
	}
	if mode.X < 700 || mode.X > 2350 {
		t.Fatalf("implausible node mode %v", mode.X)
	}
}

func TestMeasureCapResponsePublicAPI(t *testing.T) {
	b, _ := vasppower.BenchmarkByName("GaAsBi-64")
	cr, err := vasppower.MeasureCapResponse(vasppower.MeasureSpec{Bench: b, Nodes: 1, Repeats: 1, Seed: 42}, []float64{400, 100})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := cr.SlowdownAt(100)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's finding: GaAsBi-64 loses <5% even at 100 W.
	if slow > 0.05 {
		t.Fatalf("GaAsBi-64 at 100 W slowed %.1f%%", slow*100)
	}
}

func TestHighPowerModePublicAPI(t *testing.T) {
	var watts []float64
	for i := 0; i < 2000; i++ {
		if i%3 == 0 {
			watts = append(watts, 1800+float64(i%7))
		} else {
			watts = append(watts, 900+float64(i%11))
		}
	}
	mode, ok := vasppower.HighPowerMode(watts)
	if !ok {
		t.Fatal("no mode")
	}
	if math.Abs(mode.X-1803) > 25 {
		t.Fatalf("high power mode at %v, want ≈ 1803", mode.X)
	}
}

func TestSiliconBenchmarkPublicAPI(t *testing.T) {
	b, err := vasppower.SiliconBenchmark(64, vasppower.MethodHSE)
	if err != nil {
		t.Fatal(err)
	}
	if b.Structure.NumIons != 64 {
		t.Fatalf("ions = %d", b.Structure.NumIons)
	}
	if _, err := vasppower.SiliconBenchmark(3, vasppower.MethodDFTRMM); err == nil {
		t.Fatal("invalid size accepted")
	}
}

func TestSchedulerPublicAPI(t *testing.T) {
	jobs := vasppower.SyntheticJobMix(6, 60, 5)
	res, err := vasppower.SimulateScheduler(vasppower.SchedulerConfig{
		ClusterNodes: 4,
		BudgetW:      4 * 1100,
		IdleNodeW:    460,
		Policy:       vasppower.PolicyProfileAware,
		Catalog:      vasppower.NewSchedulerCatalog(5),
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(jobs) {
		t.Fatalf("completed %d of %d", res.Completed, len(jobs))
	}
	if res.PeakPowerW > 4*1100+1e-6 {
		t.Fatal("budget violated")
	}
}

func TestRunProtocolPublicAPI(t *testing.T) {
	b, _ := vasppower.BenchmarkByName("B.hR105_hse")
	out, err := vasppower.Run(vasppower.RunSpec{Bench: b, Nodes: 1, Repeats: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := out.Nodes[0].TotalTrace().Sample(vasppower.DefaultSamplingInterval)
	p := vasppower.ProfileSeries(s.Slice(out.VASPStart, out.VASPEnd))
	if _, ok := p.HighMode(); !ok {
		t.Fatal("profiled series has no mode")
	}
}

func TestPowerPredictorPublicAPI(t *testing.T) {
	// Train a tiny predictor on measured silicon profiles and check it
	// interpolates within the family.
	var samples []vasppower.PredictorSample
	for _, atoms := range []int{64, 128, 256, 512, 1024, 2048, 1500, 700} {
		b, err := vasppower.SiliconBenchmark(atoms, vasppower.MethodDFTRMM)
		if err != nil {
			t.Fatal(err)
		}
		jp, err := vasppower.Measure(vasppower.MeasureSpec{Bench: b, Nodes: 1, Repeats: 1, CapW: 0, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		mode, ok := jp.NodeTotal.HighMode()
		if !ok {
			t.Fatal("no mode")
		}
		samples = append(samples, vasppower.PredictorSample{
			Bench: b, Nodes: 1, NodeMode: mode.X,
		})
	}
	model, err := vasppower.FitPowerPredictor(samples, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := vasppower.SiliconBenchmark(384, vasppower.MethodDFTRMM)
	pred, err := model.Predict(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	jp, _ := vasppower.Measure(vasppower.MeasureSpec{Bench: b, Nodes: 1, Repeats: 1, CapW: 0, Seed: 42})
	mode, _ := jp.NodeTotal.HighMode()
	measured := mode.X
	if pred < measured*0.8 || pred > measured*1.2 {
		t.Fatalf("interpolated prediction %v vs measured %v", pred, measured)
	}
	f, err := vasppower.PredictorFeatures(b, 1)
	if err != nil || len(f) == 0 {
		t.Fatalf("features: %v %v", f, err)
	}
}
