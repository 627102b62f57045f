package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"

	"vasppower/internal/rng"
	"vasppower/internal/timeseries"
	"vasppower/internal/workloads"
)

func normalSample(seed uint64, n int, mean, sd float64) []float64 {
	r := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(mean, sd)
	}
	return xs
}

func TestKDEIntegratesToOne(t *testing.T) {
	xs := normalSample(1, 5000, 100, 15)
	k := NewKDE(xs, 0, 512)
	if got := k.Integral(); math.Abs(got-1) > 0.01 {
		t.Fatalf("KDE integral = %v, want ≈ 1", got)
	}
}

func TestKDEModeOfNormal(t *testing.T) {
	xs := normalSample(2, 20000, 250, 10)
	mode, ok := HighPowerModeOf(xs)
	if !ok {
		t.Fatal("no mode found")
	}
	if math.Abs(mode.X-250) > 3 {
		t.Fatalf("mode of N(250,10) at %v", mode.X)
	}
	// FWHM of a normal is 2.355σ; KDE smoothing widens it slightly.
	if mode.FWHM < 2.0*10 || mode.FWHM > 3.2*10 {
		t.Fatalf("FWHM = %v, want ≈ 23.5", mode.FWHM)
	}
}

func TestKDEBimodalHighPowerMode(t *testing.T) {
	// Two well-separated modes; the high power mode must be the upper
	// one even though the lower mode has more mass (the point of the
	// paper's metric).
	r := rng.New(3)
	var xs []float64
	for i := 0; i < 6000; i++ {
		xs = append(xs, r.Normal(500, 20))
	}
	for i := 0; i < 3000; i++ {
		xs = append(xs, r.Normal(1500, 30))
	}
	k := NewKDE(xs, 0, 512)
	modes := k.Modes(DefaultModeThreshold)
	if len(modes) != 2 {
		t.Fatalf("expected 2 modes, got %d: %+v", len(modes), modes)
	}
	hpm, ok := k.HighPowerMode(DefaultModeThreshold)
	if !ok {
		t.Fatal("no high power mode")
	}
	if math.Abs(hpm.X-1500) > 10 {
		t.Fatalf("high power mode at %v, want ≈ 1500", hpm.X)
	}
	// Mean is pulled between the modes — exactly why the paper prefers
	// the high power mode.
	mean := Mean(xs)
	if math.Abs(mean-hpm.X) < 200 {
		t.Fatalf("mean %v unexpectedly close to high mode %v", mean, hpm.X)
	}
}

func TestKDETrimodalDetection(t *testing.T) {
	r := rng.New(4)
	var xs []float64
	for _, m := range []float64{300, 800, 1300} {
		for i := 0; i < 4000; i++ {
			xs = append(xs, r.Normal(m, 25))
		}
	}
	k := NewKDE(xs, 0, 1024)
	modes := k.Modes(DefaultModeThreshold)
	if len(modes) != 3 {
		t.Fatalf("expected 3 modes, got %d", len(modes))
	}
	for i, want := range []float64{300, 800, 1300} {
		if math.Abs(modes[i].X-want) > 15 {
			t.Fatalf("mode %d at %v, want ≈ %v", i, modes[i].X, want)
		}
	}
}

func TestKDEThresholdSuppressesMinorModes(t *testing.T) {
	r := rng.New(5)
	var xs []float64
	for i := 0; i < 20000; i++ {
		xs = append(xs, r.Normal(400, 15))
	}
	for i := 0; i < 150; i++ { // sub-1% mass blip
		xs = append(xs, r.Normal(900, 5))
	}
	k := NewKDE(xs, 0, 512)
	modes := k.Modes(0.10)
	if len(modes) != 1 {
		t.Fatalf("minor mode not suppressed at 10%% threshold: %+v", modes)
	}
	loose := k.Modes(0.001)
	if len(loose) < 2 {
		t.Fatalf("minor mode should appear at 0.1%% threshold: %+v", loose)
	}
}

func TestKDEConstantSample(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 123
	}
	mode, ok := HighPowerModeOf(xs)
	if !ok {
		t.Fatal("constant sample has no mode")
	}
	if math.Abs(mode.X-123) > 1 {
		t.Fatalf("constant-sample mode at %v", mode.X)
	}
}

func TestKDEEmptySample(t *testing.T) {
	if _, ok := HighPowerModeOf(nil); ok {
		t.Fatal("empty sample should have no mode")
	}
	k := NewKDE(nil, 0, 16)
	if k.Integral() != 0 {
		t.Fatal("empty KDE should integrate to 0")
	}
}

func TestSilvermanBandwidthScales(t *testing.T) {
	narrow := SilvermanBandwidth(normalSample(6, 2000, 0, 1))
	wide := SilvermanBandwidth(normalSample(7, 2000, 0, 10))
	if wide < 5*narrow {
		t.Fatalf("bandwidth should scale with spread: %v vs %v", narrow, wide)
	}
	big := SilvermanBandwidth(normalSample(8, 20000, 0, 1))
	if big >= narrow {
		t.Fatalf("bandwidth should shrink with n: n=2000→%v, n=20000→%v", narrow, big)
	}
}

func TestDensityAtInterpolation(t *testing.T) {
	xs := normalSample(9, 5000, 0, 1)
	k := NewKDE(xs, 0, 256)
	// On-grid equals stored value.
	if got := k.DensityAt(k.Xs[100]); math.Abs(got-k.Density[100]) > 1e-12 {
		t.Fatalf("on-grid DensityAt mismatch: %v vs %v", got, k.Density[100])
	}
	// Off-grid lies between neighbors.
	mid := (k.Xs[100] + k.Xs[101]) / 2
	d := k.DensityAt(mid)
	lo, hi := k.Density[100], k.Density[101]
	if lo > hi {
		lo, hi = hi, lo
	}
	if d < lo-1e-12 || d > hi+1e-12 {
		t.Fatalf("interpolated density %v outside [%v,%v]", d, lo, hi)
	}
	// Outside the grid is 0, and so is a non-finite x.
	if k.DensityAt(k.Xs[0]-1) != 0 || k.DensityAt(k.Xs[len(k.Xs)-1]+1) != 0 {
		t.Fatal("out-of-grid density should be 0")
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if d := k.DensityAt(x); d != 0 {
			t.Fatalf("DensityAt(%v) = %v, want 0", x, d)
		}
	}
}

// Property: the KDE density is non-negative everywhere, for random
// samples and bandwidths.
func TestKDENonNegativeProperty(t *testing.T) {
	st := rng.New(100)
	for trial := 0; trial < 50; trial++ {
		r := rng.New(st.Uint64())
		n := 10 + r.IntN(500)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Uniform(0, 2000)
		}
		h := r.Uniform(0.1, 100)
		k := NewKDE(xs, h, 128)
		for i, d := range k.Density {
			if d < 0 || math.IsNaN(d) {
				t.Fatalf("trial %d: density[%d] = %v", trial, i, d)
			}
		}
	}
}

// Property: the high power mode is invariant (±small tolerance) to
// window-average downsampling when the modes are well separated —
// the paper's Fig. 2 finding.
func TestHighPowerModeStableUnderDownsampling(t *testing.T) {
	// Build a synthetic power timeline alternating between two levels.
	r := rng.New(11)
	var fine []float64
	for seg := 0; seg < 60; seg++ {
		level := 350.0
		if seg%2 == 0 {
			level = 150
		}
		for i := 0; i < 100; i++ { // 100 samples at 0.1 s = 10 s per segment
			fine = append(fine, level+r.Normal(0, 6))
		}
	}
	hpmFine, ok := HighPowerModeOf(fine)
	if !ok {
		t.Fatal("no fine-grained mode")
	}
	// Downsample by straight averaging of groups of k (0.1s → k/10 s).
	for _, k := range []int{2, 5, 10, 20, 50} {
		var coarse []float64
		for i := 0; i+k <= len(fine); i += k {
			var s float64
			for j := 0; j < k; j++ {
				s += fine[i+j]
			}
			coarse = append(coarse, s/float64(k))
		}
		hpm, ok := HighPowerModeOf(coarse)
		if !ok {
			t.Fatalf("k=%d: no mode", k)
		}
		if math.Abs(hpm.X-hpmFine.X) > 20 {
			t.Fatalf("k=%d: high power mode moved %v → %v", k, hpmFine.X, hpm.X)
		}
	}
}

// The truncated kernel must agree with the untruncated O(n·gridN)
// evaluation to far better than any downstream tolerance.
func TestKDETruncationMatchesFullKernel(t *testing.T) {
	xs := normalSample(12, 2000, 500, 40)
	k := NewKDE(xs, 0, 256)
	h := k.Bandwidth
	invH := 1 / h
	norm := 1 / (float64(len(xs)) * h * math.Sqrt(2*math.Pi))
	var maxDen float64
	for _, d := range k.Density {
		if d > maxDen {
			maxDen = d
		}
	}
	for i, x := range k.Xs {
		var full float64
		for _, xi := range xs {
			u := (x - xi) * invH
			full += math.Exp(-0.5 * u * u)
		}
		full *= norm
		if diff := math.Abs(k.Density[i] - full); diff > 1e-3*maxDen {
			t.Fatalf("grid %d (x=%v): truncated %v vs full %v (diff %v)",
				i, x, k.Density[i], full, diff)
		}
	}
}

// newKDEReference is NewKDE as a per-sample fold: one exp per (sample,
// grid point) pair inside the window. NewKDE must match it bit for bit.
func newKDEReference(xs []float64, h float64, gridN int) *KDE {
	if gridN < 2 {
		panic("stats: KDE grid too small")
	}
	if len(xs) == 0 {
		return &KDE{Xs: []float64{0, 1}, Density: []float64{0, 0}, Bandwidth: 1}
	}
	if h <= 0 {
		h = SilvermanBandwidth(xs)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	lo := sorted[0] - 3*h
	hi := sorted[len(sorted)-1] + 3*h
	k := &KDE{
		Xs:        make([]float64, gridN),
		Density:   make([]float64, gridN),
		Bandwidth: h,
	}
	step := (hi - lo) / float64(gridN-1)
	invH := 1 / h
	norm := 1 / (float64(len(xs)) * h * math.Sqrt(2*math.Pi))
	cut := 4 * h
	j0, j1 := 0, 0
	for i := 0; i < gridN; i++ {
		x := lo + float64(i)*step
		k.Xs[i] = x
		for j0 < len(sorted) && sorted[j0] < x-cut {
			j0++
		}
		if j1 < j0 {
			j1 = j0
		}
		for j1 < len(sorted) && sorted[j1] <= x+cut {
			j1++
		}
		var d float64
		for j := j0; j < j1; j++ {
			u := (x - sorted[j]) * invH
			d += math.Exp(-0.5 * u * u)
		}
		k.Density[i] = d * norm
	}
	return k
}

// ldmsInterval is core.DefaultSamplingInterval, which this package
// cannot import (core imports stats); the stats_test package checks
// that the two agree.
const ldmsInterval = 2.0

type namedSample struct {
	name   string
	values []float64
}

// sampledRun returns the series core.ProfileWindow profiles for one
// Table I run: node total, CPU, memory, each GPU and the GPU sum, each
// sampled at the LDMS interval over the VASP window.
func sampledRun(tb testing.TB) []namedSample {
	tb.Helper()
	b, _ := workloads.ByName("Si256_hse")
	out, err := workloads.Run(workloads.RunSpec{Bench: b, Nodes: 1, Repeats: 1, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	n := out.Nodes[0]
	window := func(name string, tr *timeseries.Trace) namedSample {
		return namedSample{name, tr.Sample(ldmsInterval).Slice(out.VASPStart, out.VASPEnd).Values}
	}
	series := []namedSample{
		window("node", n.TotalTrace()), window("cpu", n.CPUTrace()), window("mem", n.MemTrace()),
	}
	for i := 0; i < n.NumGPUs(); i++ {
		series = append(series, window(fmt.Sprintf("gpu%d", i), n.GPUTrace(i)))
	}
	return append(series, window("gpusum", n.GPUSumTrace()))
}

// sameKDE reports the first difference between got and want in the
// bits of the grid, the densities, the bandwidth or the modes, or ""
// when they are identical (see sameBits for NaN).
func sameKDE(got, want *KDE) string {
	if !sameBits(got.Bandwidth, want.Bandwidth) {
		return fmt.Sprintf("bandwidth %v vs %v", got.Bandwidth, want.Bandwidth)
	}
	if len(got.Xs) != len(want.Xs) || len(got.Density) != len(want.Density) {
		return fmt.Sprintf("grid size %d/%d vs %d/%d",
			len(got.Xs), len(got.Density), len(want.Xs), len(want.Density))
	}
	for i := range want.Xs {
		if !sameBits(got.Xs[i], want.Xs[i]) {
			return fmt.Sprintf("Xs[%d] %v vs %v", i, got.Xs[i], want.Xs[i])
		}
		if !sameBits(got.Density[i], want.Density[i]) {
			return fmt.Sprintf("Density[%d] %v vs %v", i, got.Density[i], want.Density[i])
		}
	}
	return sameModes(got.Modes(DefaultModeThreshold), want.Modes(DefaultModeThreshold))
}

func sameModes(got, want []Mode) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d modes vs %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !sameBits(g.X, w.X) || !sameBits(g.Density, w.Density) || !sameBits(g.FWHM, w.FWHM) {
			return fmt.Sprintf("mode %d %+v vs %+v", i, g, w)
		}
	}
	return ""
}

// checkKDEMatchesReference compares NewKDE, and DescribeKDE when h is
// Silverman's, against the reference fold and reference Describe.
func checkKDEMatchesReference(t *testing.T, name string, xs []float64, h float64, gridN int) {
	t.Helper()
	want := newKDEReference(xs, h, gridN)
	if diff := sameKDE(NewKDE(xs, h, gridN), want); diff != "" {
		t.Fatalf("%s h=%v grid=%d: NewKDE differs from the per-sample fold: %s", name, h, gridN, diff)
	}
	if h > 0 {
		return
	}
	wantSum, wantErr := describeReference(xs)
	gotSum, err := Describe(xs)
	if err != wantErr {
		t.Fatalf("%s: Describe error %v, want %v", name, err, wantErr)
	}
	if diff := sameSummary(gotSum, wantSum); diff != "" {
		t.Fatalf("%s: Describe differs from the reference: %s", name, diff)
	}
	gotSum, gotKDE, err := DescribeKDE(xs, gridN)
	if err != wantErr {
		t.Fatalf("%s: DescribeKDE error %v, want %v", name, err, wantErr)
	}
	if err != nil {
		return
	}
	if diff := sameSummary(gotSum, wantSum); diff != "" {
		t.Fatalf("%s grid=%d: DescribeKDE summary differs from the reference: %s", name, gridN, diff)
	}
	if diff := sameKDE(gotKDE, want); diff != "" {
		t.Fatalf("%s grid=%d: DescribeKDE density differs from the per-sample fold: %s", name, gridN, diff)
	}
}

func TestKDEMatchesReference(t *testing.T) {
	quantized := normalSample(21, 5000, 1000, 100)
	for i := range quantized {
		quantized[i] = math.Round(quantized[i])
	}
	// Long constant runs, as LDMS window means inside long kernel
	// segments produce, joined by a few distinct transition values.
	r := rng.New(22)
	var runs []float64
	for seg := 0; seg < 40; seg++ {
		level := r.Uniform(80, 400)
		for i := 0; i < 1+r.IntN(200); i++ {
			runs = append(runs, level)
		}
		runs = append(runs, r.Uniform(80, 400))
	}
	constant := make([]float64, 300)
	for i := range constant {
		constant[i] = 123
	}
	zeros := []float64{0, math.Copysign(0, -1), 1e-3, 0, -1e-3, math.Copysign(0, -1), 0, 2e-3}
	nan := normalSample(23, 500, 250, 20)
	nan[17], nan[301] = math.NaN(), math.NaN()

	cases := []namedSample{
		{"normal", normalSample(20, 5000, 1000, 100)},
		{"quantized-1W", quantized},
		{"constant-runs", runs},
		{"single-constant", constant},
		{"signed-zeros", zeros},
		{"nan", nan},
		{"empty", nil},
	}
	for _, s := range sampledRun(t) {
		cases = append(cases, namedSample{"run-" + s.name, s.values})
	}
	for _, c := range cases {
		for _, gridN := range []int{512, 97} {
			for _, h := range []float64{0, 3} {
				checkKDEMatchesReference(t, c.name, c.values, h, gridN)
			}
		}
	}
}

// FuzzKDE decodes bytes into a sample (the first byte picks the
// decoding) and requires NewKDE to match the per-sample fold bit for
// bit on it.
func FuzzKDE(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 7, 7, 3, 200, 200, 200}, 512, 0.0)
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0}, 64, 0.0)
	f.Add([]byte{0, 5, 5, 5, 5}, 2, 1.5)
	f.Add([]byte("1000000\xff\xff000001\xff\xff"), 64, 0.0) // two NaN payloads
	f.Fuzz(func(t *testing.T, data []byte, gridN int, h float64) {
		// Small enough that one execution (two folds of up to
		// maxSamples × gridN kernel terms) stays around a millisecond.
		const maxSamples = 512
		var xs []float64
		if len(data) > 0 {
			mode, rest := data[0]%2, data[1:]
			if mode == 0 {
				// Heavily tied: one of 32 watt levels per byte.
				for _, b := range rest {
					xs = append(xs, 100+float64(b%32))
				}
			} else {
				// Any float64, NaN and ±Inf included.
				for ; len(rest) >= 8; rest = rest[8:] {
					xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(rest)))
				}
			}
		}
		if len(xs) > maxSamples {
			xs = xs[:maxSamples]
		}
		gridN = 2 + int(uint(gridN)%511)
		checkKDEMatchesReference(t, "fuzz", xs, h, gridN)
	})
}

func BenchmarkKDE(b *testing.B) {
	quantized := normalSample(1, 5000, 1000, 100)
	for i := range quantized {
		quantized[i] = math.Round(quantized[i])
	}
	run := sampledRun(b)
	for _, bc := range []struct {
		name  string
		xs    []float64
		gridN int
	}{
		{"n1000_grid512", normalSample(1, 1000, 1000, 100), 512},
		{"n5000_grid512", normalSample(1, 5000, 1000, 100), 512},
		{"n20000_grid512", normalSample(1, 20000, 1000, 100), 512},
		{"n5000_grid1024", normalSample(1, 5000, 1000, 100), 1024},
		// Tied inputs, where the run-length fold saves exp calls: a
		// 1 W-quantized sample, and the node and GPU-sum power of a
		// Table I run sampled like LDMS.
		{"quantized_n5000_grid512", quantized, 512},
		{"sampled_node_grid512", run[0].values, 512},
		{"sampled_gpusum_grid512", run[len(run)-1].values, 512},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kdeSink = NewKDE(bc.xs, 0, bc.gridN)
			}
		})
	}
}

var kdeSink *KDE
