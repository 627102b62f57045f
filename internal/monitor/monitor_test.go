package monitor

import (
	"math"
	"testing"

	"vasppower/internal/hw/node"
	"vasppower/internal/hw/platform"
	"vasppower/internal/rng"
	"vasppower/internal/timeseries"
)

func constantTrace(dur, power float64) *timeseries.Trace {
	tr := &timeseries.Trace{}
	tr.Append(dur, power)
	return tr
}

func TestConfigValidate(t *testing.T) {
	if err := LDMSDefault().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := HighRate().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Interval: 0},
		{Interval: -1},
		{Interval: 1, DropProb: -0.1},
		{Interval: 1, DropProb: 1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %+v accepted", c)
		}
	}
}

func TestEffectiveInterval(t *testing.T) {
	// Nominal 1 s with 50% drops → effective 2 s, as the paper reports.
	if got := effectiveInterval(LDMSDefault()); math.Abs(got-2) > 1e-9 {
		t.Fatalf("effective interval = %v, want 2", got)
	}
	if got := effectiveInterval(HighRate()); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("high-rate effective interval = %v", got)
	}
}

func TestSampleNoDrops(t *testing.T) {
	s, err := Sample(constantTrace(100, 250), Config{Interval: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 100 {
		t.Fatalf("samples = %d, want 100", s.Len())
	}
	for _, v := range s.Values {
		if v != 250 {
			t.Fatalf("sample = %v, want 250", v)
		}
	}
}

func TestSampleDropRate(t *testing.T) {
	s, err := Sample(constantTrace(10000, 100), LDMSDefault())
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(s.Len()) / 10000
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("survival fraction %v, want ≈ 0.5", frac)
	}
	// Median spacing ≈ effective interval.
	if iv := s.Interval(); iv < 1 || iv > 3 {
		t.Fatalf("effective spacing %v implausible", iv)
	}
}

func TestSampleDropsDeterministic(t *testing.T) {
	cfg := Config{Interval: 1, DropProb: 0.5, Seed: 7}
	a, _ := Sample(constantTrace(1000, 100), cfg)
	b, _ := Sample(constantTrace(1000, 100), cfg)
	if a.Len() != b.Len() {
		t.Fatal("same seed produced different drops")
	}
	cfg.Seed = 8
	c, _ := Sample(constantTrace(1000, 100), cfg)
	if c.Len() == a.Len() {
		// Lengths can coincide; compare timestamps.
		same := true
		for i := range a.Times {
			if i >= c.Len() || a.Times[i] != c.Times[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical drop patterns")
		}
	}
}

func TestSampleInvalidConfig(t *testing.T) {
	if _, err := Sample(constantTrace(10, 1), Config{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSampleNode(t *testing.T) {
	n := node.New("nid000001", platform.Default(), rng.New(1).Split("n"))
	n.RecordIdle(50)
	out, err := SampleNode(n, Config{Interval: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3+n.NumGPUs() {
		t.Fatalf("expected %d metrics, got %d", 3+n.NumGPUs(), len(out))
	}
	for _, m := range Metrics(n.NumGPUs()) {
		s, ok := out[m]
		if !ok {
			t.Fatalf("metric %s missing", m)
		}
		if s.Len() != 25 {
			t.Fatalf("metric %s has %d samples, want 25", m, s.Len())
		}
	}
	// Node metric exceeds the sum of CPU alone (peripherals included).
	if out[MetricNode].Mean() <= out[MetricCPU].Mean() {
		t.Fatal("node power should exceed CPU power")
	}
}

func TestSampleNodeDropsDiffer(t *testing.T) {
	n := node.New("nid000001", platform.Default(), nil)
	n.RecordIdle(2000)
	out, err := SampleNode(n, LDMSDefault())
	if err != nil {
		t.Fatal(err)
	}
	// GPU0 and GPU1 should not share an identical drop pattern.
	a, b := out[GPUMetric(0)], out[GPUMetric(1)]
	if a.Len() == b.Len() {
		same := true
		for i := range a.Times {
			if a.Times[i] != b.Times[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("metrics share identical drop patterns")
		}
	}
}

func TestGPUMetric(t *testing.T) {
	if GPUMetric(2) != "gpu2" {
		t.Fatal("GPUMetric wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad index did not panic")
		}
	}()
	GPUMetric(-1)
}

func TestSampleEmptyTrace(t *testing.T) {
	s, err := Sample(&timeseries.Trace{}, Config{Interval: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatal("empty trace produced samples")
	}
}

func TestSampleNodeInvalidConfig(t *testing.T) {
	n := node.New("nid1", platform.Default(), nil)
	if _, err := SampleNode(n, Config{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// effectiveInterval returns the expected spacing between surviving
// samples.
func effectiveInterval(c Config) float64 {
	return c.Interval / (1 - c.DropProb)
}
