package monitor

import (
	"math"
	"testing"

	"vasppower/internal/timeseries"
)

func TestConfigValidateNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Config{
		{Interval: nan},
		{Interval: inf},
		{Interval: 1, DropProb: nan},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("non-finite config %+v accepted", c)
		}
	}
}

func TestSMIConfigValidate(t *testing.T) {
	if err := SMIDefault().Validate(); err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := []SMIConfig{
		{},
		{PollInterval: 1},
		{PollInterval: -1, UpdateInterval: 0.1},
		{PollInterval: nan, UpdateInterval: 0.1},
		{PollInterval: inf, UpdateInterval: 0.1},
		{PollInterval: 1, UpdateInterval: nan},
		{PollInterval: 1, UpdateInterval: inf},
		{PollInterval: 1, UpdateInterval: 0.1, AveragingWindow: -0.1},
		{PollInterval: 1, UpdateInterval: 0.1, AveragingWindow: nan},
		{PollInterval: 1, UpdateInterval: 0.1, Phase: 0.1},
		{PollInterval: 1, UpdateInterval: 0.1, Phase: -0.01},
		{PollInterval: 1, UpdateInterval: 0.1, Phase: nan},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("smi config %+v accepted", c)
		}
	}
}

func TestSampleSMIConstantTrace(t *testing.T) {
	s, err := SampleSMI(constantTrace(10, 300), SMIDefault())
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 10 {
		t.Fatalf("samples = %d, want 10", s.Len())
	}
	for i, v := range s.Values {
		if v != 300 {
			t.Fatalf("sample %d = %v, want 300", i, v)
		}
		if want := float64(i + 1); s.Times[i] != want {
			t.Fatalf("time %d = %v, want %v", i, s.Times[i], want)
		}
	}
}

// The transient-miss pathology: a spike shorter than the gap between
// the update ticks adjacent to the polls is invisible to nvidia-smi,
// while the window-averaging Cray pipeline folds it into the mean.
func TestSampleSMIMissesTransient(t *testing.T) {
	tr := &timeseries.Trace{}
	tr.Append(0.42, 100)
	tr.Append(0.47, 400) // 50 ms spike between update ticks
	tr.Append(10, 100)
	smi, err := SampleSMI(tr, SMIDefault())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range smi.Values {
		if v != 100 {
			t.Fatalf("smi sample %d saw the transient (%v W)", i, v)
		}
	}
	pm, err := Sample(tr, Config{Interval: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pm.Values[0] <= 100 {
		t.Fatal("window-averaged pipeline should see the transient")
	}
}

// The reading-age pathology: the register refreshed at the last update
// tick, so a poll returns power that is up to UpdateInterval old.
func TestSampleSMIReadingAge(t *testing.T) {
	tr := &timeseries.Trace{}
	tr.Append(0.95, 100)
	tr.Append(10, 350)
	// Update ticks every 0.5 s: the tick at t=0.5 reads 100 W; a poll
	// at t=1 (past the step at 0.95) must return the stale 100 W
	// because the next tick lands exactly at the poll — with phase 0.25
	// the latest tick before t=1 is 0.75, still 100 W.
	cfg := SMIConfig{PollInterval: 1, UpdateInterval: 0.5, Phase: 0.25}
	s, err := SampleSMI(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Values[0] != 100 {
		t.Fatalf("poll at t=1 = %v, want stale 100", s.Values[0])
	}
	if s.Values[1] != 350 {
		t.Fatalf("poll at t=2 = %v, want 350", s.Values[1])
	}
}

// The aliasing pathology: with update and poll clocks commensurate, a
// square wave whose period divides the poll interval is sampled at the
// same phase every time — the series reports constant power and the
// oscillation disappears entirely.
func TestSampleSMIAliasesPeriodicLoad(t *testing.T) {
	tr := &timeseries.Trace{}
	for i := 0; i < 40; i++ { // 1 Hz square wave between 100 and 400 W
		tr.Append(tr.Duration()+0.5, 100)
		tr.Append(tr.Duration()+0.5, 400)
	}
	s, err := SampleSMI(tr, SMIDefault())
	if err != nil {
		t.Fatal(err)
	}
	first := s.Values[0]
	for i, v := range s.Values {
		if v != first {
			t.Fatalf("sample %d = %v; aliased sampling should pin one phase", i, v)
		}
	}
	// The true mean is 250 W; the aliased estimate is off by 150 W.
	if math.Abs(s.Mean()-250) < 100 {
		t.Fatal("aliasing should bias the mean estimate")
	}
}

func TestSampleSMIAveragingWindow(t *testing.T) {
	tr := &timeseries.Trace{}
	tr.Append(0.95, 100)
	tr.Append(10, 300)
	cfg := SMIConfig{PollInterval: 1, UpdateInterval: 1}
	// Point sample at u=1: nudged inside the second segment boundary,
	// reads 300? No — u=1.0 reads the power at 1.0-ε = 300 (the step
	// was at 0.95). A wide averaging window mixes in the 100 W head.
	point, err := SampleSMI(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AveragingWindow = 1
	avg, err := SampleSMI(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if point.Values[0] != 300 {
		t.Fatalf("point sample = %v, want 300", point.Values[0])
	}
	want := 0.95*100 + 0.05*300
	if math.Abs(avg.Values[0]-want) > 1e-9 {
		t.Fatalf("averaged sample = %v, want %v", avg.Values[0], want)
	}
}

func TestSampleSMIEmptyAndInvalid(t *testing.T) {
	s, err := SampleSMI(&timeseries.Trace{}, SMIDefault())
	if err != nil || s.Len() != 0 {
		t.Fatalf("empty trace: (%d, %v)", s.Len(), err)
	}
	if _, err := SampleSMI(constantTrace(10, 1), SMIConfig{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}
