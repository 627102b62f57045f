package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestMixIsSeedDeterministic(t *testing.T) {
	a, b := newMix(7, 600), newMix(7, 600)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced two different request plans")
	}
	c := newMix(8, 600)
	if reflect.DeepEqual(a.reqs, c.reqs) {
		t.Fatal("different seeds produced the same request sequence")
	}
}

// Every seed offers the same amount of each kind of work: the class
// counts and the cold requests' parameter mix are fixed; only their
// order and seeds change.
func TestMixCompositionIsSeedIndependent(t *testing.T) {
	count := func(p mixPlan) map[reqClass]int {
		m := map[reqClass]int{}
		for _, r := range p.reqs {
			if r.class == classVariant {
				m[classHot]++ // the hot/variant split is a seeded draw
				continue
			}
			m[r.class]++
		}
		return m
	}
	want := count(newMix(1, 1500))
	if want[classMeasure] != 120 || want[classSweep] != 60 || want[classSchedule] != 15 {
		t.Fatalf("cold requests per 1500 = %v, want 120 measures, 60 sweeps, 15 schedules", want)
	}
	for seed := uint64(2); seed < 6; seed++ {
		if got := count(newMix(seed, 1500)); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: class counts %v, want %v", seed, got, want)
		}
	}
}

// Fresh measures come in pairs of one body one slot apart, so the copy
// coalesces; fresh sweeps come in pairs due at the same instant on one
// benchmark and seed, so the batcher merges their shared points.
func TestMixPairsColdRequests(t *testing.T) {
	reqs := newMix(5, 1000).reqs
	measures, sweeps := 0, 0
	for i := 0; i < len(reqs); i++ {
		r := reqs[i]
		if i > 0 && r.at < reqs[i-1].at {
			t.Fatalf("request %d is due before request %d", i, i-1)
		}
		switch r.class {
		case classMeasure:
			next := reqs[i+1]
			if next.class != classMeasure || !bytes.Equal(next.body, r.body) || math.Abs(next.at-r.at-1.0/mixRate) > 1e-9 {
				t.Fatalf("measure %d: %s is not repeated one slot later", i, r.body)
			}
			measures++
			i++
		case classSweep:
			next := reqs[i+1]
			if next.class != classSweep || next.at != r.at || next.keys[0] != r.keys[0] || len(next.keys)+len(r.keys) != 24 {
				t.Fatalf("sweep %d: %s and %s are not a pair due together sharing points", i, r.body, next.body)
			}
			sweeps++
			i++
		}
	}
	if measures != 40 || sweeps != 20 {
		t.Fatalf("%d measure pairs and %d sweep pairs in 1000 requests, want 40 and 20", measures, sweeps)
	}
	if at := reqs[len(reqs)-1].at; math.Abs(at-999.0/mixRate) > 1e-9 {
		t.Fatalf("last request due at %g s, want %g s", at, 999.0/mixRate)
	}
}

// The warm workload's expected output is the golden with the skipped
// runners' sections cut out whole.
func TestGoldenWithout(t *testing.T) {
	raw, err := os.ReadFile("../" + goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := normalize(raw)
	if got := goldenWithout(golden, nil); got != golden {
		t.Fatal("goldenWithout(nil) changed the golden")
	}
	sub := goldenWithout(golden, warmSkipped)
	sections := func(s string) int { return strings.Count(s, " regenerated in _s") }
	if sections(golden) != 19 || sections(sub) != 19-len(warmSkipped) {
		t.Fatalf("sections: golden %d, without %v %d", sections(golden), warmSkipped, sections(sub))
	}
	for _, name := range warmSkipped {
		if strings.Contains(sub, "["+name+" regenerated in") {
			t.Errorf("section %s survived", name)
		}
	}
	if !strings.HasSuffix(golden, sub[strings.LastIndex(sub, strings.Repeat("=", 78)):]) {
		t.Error("the last kept section is not the golden's last section")
	}
}

func TestMixRequestsCarryTheirEngineKeys(t *testing.T) {
	for _, r := range newMix(3, 500).reqs {
		switch r.class {
		case classSchedule:
			if len(r.keys) != 0 {
				t.Fatalf("schedule request has measurement keys: %s", r.body)
			}
		case classSweep:
			if len(r.keys) < 8 || len(r.keys) > 16 {
				t.Fatalf("sweep %s has %d point keys, want 8-16", r.body, len(r.keys))
			}
		default:
			if len(r.keys) != 1 {
				t.Fatalf("%s request %s has %d keys, want 1", r.class, r.body, len(r.keys))
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, tc.p, got, tc.want)
		}
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median of an even count is not the mean of the middle pair")
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %g, want 1", s)
	}
}

func TestTailReportsOnlySupportedPercentiles(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		label string
	}{{5, "max"}, {19, "max"}, {20, "p50"}, {40, "p75"}, {99, "p89.9"}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {20000, "p99"}} {
		if got := tailOf(seq(tc.n), 99); got.Label != tc.label || got.N != tc.n {
			t.Errorf("tailOf(n=%d) = %v, want %s", tc.n, got, tc.label)
		}
	}
	if got := tailOf(seq(10000), 99.9); got.Label != "p99.9" {
		t.Errorf("tailOf(n=10000, 99.9) = %v, want p99.9", got)
	}
	if got := tailOf(seq(7), 99); got.Value != 7 {
		t.Errorf("small-sample tail = %v, want the maximum 7", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	span := interval{0, 10}
	children := []interval{
		{1, 3}, {2, 4}, // overlapping: 1..4 counts once
		{6, 7},
		{9, 12},  // clipped to the span: 9..10
		{20, 30}, // outside
	}
	if got := covered(span, children); math.Abs(got-5) > 1e-12 {
		t.Errorf("covered = %g, want 5", got)
	}
	if got := selfTime(span, children); math.Abs(got-5) > 1e-12 {
		t.Errorf("selfTime = %g, want 5", got)
	}
	if got := selfTime(span, nil); got != 10 {
		t.Errorf("selfTime with no children = %g, want 10", got)
	}
}

// The layer table adds up: runner self times, measure time and what no
// span covers sum to the run's wall time.
func TestAttributeStudyAddsUp(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	spans := []span{
		{Span: "measure", Start: at(10), MS: 30, CacheHit: false},
		{Span: "measure", Start: at(50), MS: 5, CacheHit: true},
		{Span: "experiment", Name: "fig4/5", Start: at(0), MS: 100},
		{Span: "experiment", Name: "newfig", Start: at(100), MS: 50},
	}
	wall := 0.2
	m := attributeStudy(spans, wall)
	want := map[string]float64{
		"experiments.fig4-5_s":      0.065,
		"experiments.other_s":       0.05,
		"experiments.measure_s":     0.03,
		"experiments.measure_hit_s": 0.005,
		"unattributed_s":            0.05,
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, m[k], v)
		}
	}
	sum := m["unattributed_s"] + m["experiments.measure_s"] + m["experiments.measure_hit_s"]
	for _, r := range studyRunners {
		sum += m[runnerMetric(r)]
	}
	sum += m["experiments.other_s"]
	if math.Abs(sum-wall) > 1e-9 {
		t.Errorf("layer times sum to %g, want the wall time %g", sum, wall)
	}
}

func TestBenchmarkFileMetricNames(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{bf.EndToEnd, bf.PerLayer} {
		for _, m := range list {
			if !valid.MatchString(m.Name) {
				t.Errorf("metric name %q does not match [A-Za-z0-9_.-]+", m.Name)
			}
			if !unit.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q is not a valid unit", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better = %q", m.Name, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("metric %s declared twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	var names []string
	for _, m := range bf.PerLayer {
		names = append(names, m.Name)
	}
	if !reflect.DeepEqual(names, perLayerMetrics()) {
		t.Errorf("BENCHMARK.json per_layer names differ from what a traced run reports:\nfile: %v\nrun:  %v", names, perLayerMetrics())
	}
	for _, w := range bf.Workloads {
		if _, ok := workloadFuncs[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestBuildResultRequiresExactlyTheDeclaredMetrics(t *testing.T) {
	specs := []metricSpec{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}
	o := newOutcome()
	o.op()
	o.m["a"] = 1
	if _, err := buildResult(o, specs); err == nil {
		t.Error("a missing metric was accepted")
	}
	o.m["b"] = 2
	res, err := buildResult(o, specs)
	if err != nil || !res.Correct || res.Metrics["b"].Unit != "ms" {
		t.Errorf("buildResult = %+v, %v", res, err)
	}
	o.m["c"] = 3
	if _, err := buildResult(o, specs); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	delete(o.m, "c")
	o.gate("wrong bytes")
	if res, _ := buildResult(o, specs); res.Correct || res.Failed != 1 {
		t.Errorf("a gate failure left correct=%v failed=%d", res.Correct, res.Failed)
	}
}

func TestDroppedColumn(t *testing.T) {
	out := []byte(`job mix: 10 VASP jobs

policy         makespan  dropped
-------------  --------  -------
nocap          501275 s  0
uniform-200    501275 s  0
profile-aware  501277 s  3

profile-aware capping reserves measured power
`)
	got, err := droppedColumn(out)
	if err != nil || !reflect.DeepEqual(got, []string{"0", "0", "3"}) {
		t.Fatalf("droppedColumn = %v, %v", got, err)
	}
	if _, err := droppedColumn(bytes.ReplaceAll(out, []byte("dropped"), []byte("lost"))); err == nil {
		t.Error("a table without a dropped column was accepted")
	}
}

func TestPaperErrPct(t *testing.T) {
	c := calibration{Benchmarks: []benchDrift{
		{Name: "a", TargetW: 1000, Drift: -0.05},
		{Name: "untargeted", Drift: 0.9},
	}}
	if got := c.paperErrPct(); math.Abs(got-5) > 1e-9 {
		t.Errorf("mode drift only: %g%%, want 5%%", got)
	}
	c.CapChecks = []capCheck{
		{Bench: "a", CapW: 250, Slowdown: 0.05, Checked: true, Min: 0, Max: 0.1},
		{Bench: "a", CapW: 200, Slowdown: 0.18, Checked: true, Min: 0, Max: 0.1},
		{Bench: "a", CapW: 150, Slowdown: 0.5},
	}
	if got := c.paperErrPct(); math.Abs(got-8) > 1e-9 {
		t.Errorf("slowdown 8 points past its band: %g%%, want 8%%", got)
	}
}

func TestDeriveSeparatesLabels(t *testing.T) {
	e := &env{seed: 42}
	if e.derive("a") == e.derive("b") {
		t.Error("two labels derived the same seed")
	}
	if e.derive("a") != (&env{seed: 42}).derive("a") {
		t.Error("derive is not deterministic")
	}
	if d := e.derive("a"); d < 1 || d > 1_000_000_000 {
		t.Errorf("derived seed %d outside [1, 1e9]", d)
	}
}
