package core

import (
	"math"
	"testing"

	"vasppower/internal/stats"
	"vasppower/internal/timeseries"
	"vasppower/internal/workloads"
)

// eagerProfile is how ProfileSeries used to build a profile: the
// summary and the modes of one stats.DescribeKDE, all computed up
// front.
func eagerProfile(s timeseries.Series) Profile {
	if s.Len() == 0 {
		return Profile{Series: s}
	}
	summary, k, _ := stats.DescribeKDE(s.Values, 512)
	v := profileView{Series: s, Summary: summary, Modes: k.Modes(stats.DefaultModeThreshold)}
	if len(v.Modes) > 0 {
		v.HighMode, v.HasMode = v.Modes[len(v.Modes)-1], true
	}
	return v.profile()
}

// eagerJobProfile rebuilds every profile of jp with eagerProfile.
func eagerJobProfile(jp JobProfile) JobProfile {
	out := jp
	out.NodeTotal = eagerProfile(jp.NodeTotal.Series)
	out.CPU = eagerProfile(jp.CPU.Series)
	out.Mem = eagerProfile(jp.Mem.Series)
	out.GPUs = make([]Profile, len(jp.GPUs))
	for i, g := range jp.GPUs {
		out.GPUs[i] = eagerProfile(g.Series)
	}
	out.GPUSum = eagerProfile(jp.GPUSum.Series)
	return out
}

// TestLazyModesMatchEager: for every Table I benchmark on one and two
// nodes, uncapped and at two caps, every one of the eight series reads
// back the summary and modes an eager DescribeKDE gives, bit for bit.
func TestLazyModesMatchEager(t *testing.T) {
	for _, b := range workloads.TableI() {
		for _, nodes := range []int{1, 2} {
			sctx := NewSweepContext(MeasureSpec{Bench: b, Nodes: nodes, Seed: 2024})
			for _, capW := range []float64{0, 250, 150} {
				jp, err := sctx.MeasureCap(capW)
				if err != nil {
					t.Fatal(err)
				}
				if len(jp.GPUs) != 4 {
					t.Fatalf("%s: %d GPU series, want 4", b.Name, len(jp.GPUs))
				}
				for _, p := range append([]Profile{jp.NodeTotal, jp.CPU, jp.Mem, jp.GPUSum}, jp.GPUs...) {
					if p.Series.Len() == 0 || p.modes == nil {
						t.Fatalf("%s/%d nodes/%v W: a series is empty", b.Name, nodes, capW)
					}
				}
				if eager := eagerJobProfile(jp); !sameProfile(jp, eager) {
					t.Fatalf("%s/%d nodes/%v W: lazy profile differs from the eager one:\n lazy  %+v\n eager %+v",
						b.Name, nodes, capW, view(jp), view(eager))
				}
			}
			sctx.Close()
		}
	}
}

func TestProfileSeriesBasics(t *testing.T) {
	var s timeseries.Series
	for i := 1; i <= 500; i++ {
		s.Times = append(s.Times, float64(i)*2)
		v := 700.0
		if i%10 < 3 {
			v = 1500
		}
		s.Values = append(s.Values, v)
	}
	p := ProfileSeries(s)
	high, ok := p.HighMode()
	if !ok {
		t.Fatal("no mode found")
	}
	if math.Abs(high.X-1500) > 30 {
		t.Fatalf("high mode at %v, want ≈ 1500", high.X)
	}
	if len(p.Modes()) < 2 {
		t.Fatal("bimodal series should yield two modes")
	}
	if p.Summary.N != 500 {
		t.Fatalf("summary N = %d", p.Summary.N)
	}
}

func TestProfileSeriesEmpty(t *testing.T) {
	p := ProfileSeries(timeseries.Series{})
	if _, ok := p.HighMode(); ok || p.Modes() != nil || p.Summary.N != 0 {
		t.Fatal("empty profile should be empty")
	}
}

func TestMeasureBenchmarkProfile(t *testing.T) {
	b, _ := workloads.ByName("B.hR105_hse")
	jp, err := Measure(MeasureSpec{Bench: b, Nodes: 1, Repeats: 2, CapW: 0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if jp.Runtime <= 0 || jp.EnergyJ <= 0 {
		t.Fatalf("degenerate profile: %+v", jp)
	}
	if _, ok := jp.NodeTotal.HighMode(); !ok {
		t.Fatal("node profile has no mode")
	}
	// Energy ≈ mean node power × runtime (single node).
	approx := jp.NodeTotal.Summary.Mean * jp.Runtime
	if math.Abs(jp.EnergyJ-approx)/approx > 0.05 {
		t.Fatalf("energy %.0f J vs mean×time %.0f J", jp.EnergyJ, approx)
	}
	// Shares are sane fractions.
	if s := jp.GPUShareOfNode(); s <= 0.2 || s >= 1 {
		t.Fatalf("GPU share %v", s)
	}
	if s := jp.CPUMemShareOfNode(); s <= 0 || s >= 0.5 {
		t.Fatalf("CPU+mem share %v", s)
	}
}

func TestMeasureBenchmarkCapReducesMode(t *testing.T) {
	b, _ := workloads.ByName("B.hR105_hse")
	base, err := Measure(MeasureSpec{Bench: b, Nodes: 1, Repeats: 1, CapW: 0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := Measure(MeasureSpec{Bench: b, Nodes: 1, Repeats: 1, CapW: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cappedMode, ok1 := capped.GPUs[0].HighMode()
	baseMode, ok2 := base.GPUs[0].HighMode()
	if !ok1 || !ok2 {
		t.Fatal("missing GPU modes")
	}
	if cappedMode.X >= baseMode.X {
		t.Fatalf("cap did not reduce GPU mode: %v vs %v", cappedMode.X, baseMode.X)
	}
	if cappedMode.X > 200.01 {
		t.Fatalf("GPU mode %v exceeds 200 W cap", cappedMode.X)
	}
}

func TestMeasureCapResponse(t *testing.T) {
	b, _ := workloads.ByName("B.hR105_hse")
	cr, err := MeasureCapResponse(MeasureSpec{Bench: b, Nodes: 1, Repeats: 1, Seed: 7}, []float64{400, 300, 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Points) != 3 {
		t.Fatalf("points = %d", len(cr.Points))
	}
	if cr.Points[0].RelPerf != 1 {
		t.Fatalf("uncapped RelPerf = %v", cr.Points[0].RelPerf)
	}
	// Deeper caps never speed things up.
	for i := 1; i < len(cr.Points); i++ {
		if cr.Points[i].RelPerf > cr.Points[i-1].RelPerf+1e-9 {
			t.Fatal("RelPerf increased under a deeper cap")
		}
	}
	slow, err := cr.SlowdownAt(200)
	if err != nil {
		t.Fatal(err)
	}
	if slow < 0 {
		t.Fatalf("negative slowdown %v", slow)
	}
	if _, err := cr.SlowdownAt(123); err == nil {
		t.Fatal("unmeasured cap accepted")
	}
}

func TestProfileRunUsesVASPWindow(t *testing.T) {
	b, _ := workloads.ByName("B.hR105_hse")
	out, err := workloads.Run(workloads.RunSpec{
		Bench: b, Nodes: 1, Repeats: 1, Prelude: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	jp := ProfileRun(out, DefaultSamplingInterval)
	// The profile covers the VASP window only: its runtime must match
	// the solver result, not the whole trace (which includes DGEMM).
	if math.Abs(jp.Runtime-out.BestResult.Runtime) > 1e-6 {
		t.Fatalf("profile runtime %v vs solver %v", jp.Runtime, out.BestResult.Runtime)
	}
	if jp.NodeTotal.Series.Len() == 0 {
		t.Fatal("empty profile series")
	}
	// First profiled sample must start after the prelude.
	if jp.NodeTotal.Series.Times[0] < out.VASPStart {
		t.Fatal("profile includes prelude samples")
	}
}

func TestProfileRunEmpty(t *testing.T) {
	jp := ProfileRun(workloads.RunOutput{}, 2)
	if jp.Runtime != 0 {
		t.Fatal("empty run output should yield empty profile")
	}
}

var (
	profileSink    Profile
	jobProfileSink JobProfile
	modeSink       stats.Mode
)

// BenchmarkProfileSeries profiles the eight series ProfileWindow builds
// for one Table I run sampled at the LDMS interval and reads each
// one's high mode: the summary, KDE and modes work of a measurement
// whose every mode is read.
func BenchmarkProfileSeries(b *testing.B) {
	for _, name := range []string{"Si256_hse", "PdO4"} {
		bench, _ := workloads.ByName(name)
		out, err := workloads.Run(workloads.RunSpec{Bench: bench, Nodes: 1, Repeats: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		n := out.Nodes[0]
		traces := []*timeseries.Trace{n.TotalTrace(), n.CPUTrace(), n.MemTrace(), n.GPUSumTrace()}
		for i := 0; i < n.NumGPUs(); i++ {
			traces = append(traces, n.GPUTrace(i))
		}
		series := make([]timeseries.Series, len(traces))
		for i, tr := range traces {
			series[i] = tr.Sample(DefaultSamplingInterval).Slice(out.VASPStart, out.VASPEnd)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range series {
					profileSink = ProfileSeries(s)
					modeSink, _ = profileSink.HighMode()
				}
			}
		})
	}
}

// BenchmarkProfileRun profiles one Table I run with ProfileRun, then
// reads the node's high mode (read=node, what most figures and the
// scheduler catalog read) or every series' (read=all, what powerd
// reads).
func BenchmarkProfileRun(b *testing.B) {
	for _, name := range []string{"Si256_hse", "PdO4"} {
		bench, _ := workloads.ByName(name)
		out, err := workloads.Run(workloads.RunSpec{Bench: bench, Nodes: 1, Repeats: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/read=node", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				jobProfileSink = ProfileRun(out, DefaultSamplingInterval)
				modeSink, _ = jobProfileSink.NodeTotal.HighMode()
			}
		})
		b.Run(name+"/read=all", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				jp := ProfileRun(out, DefaultSamplingInterval)
				for _, p := range append([]Profile{jp.NodeTotal, jp.CPU, jp.Mem, jp.GPUSum}, jp.GPUs...) {
					modeSink, _ = p.HighMode()
				}
				jobProfileSink = jp
			}
		})
	}
}
