package core

import (
	"testing"

	"vasppower/internal/workloads"
)

func TestTradeoffMetrics(t *testing.T) {
	p := Tradeoff{EnergyJ: 100, RuntimeS: 10}
	if p.EDP() != 1000 {
		t.Fatalf("EDP = %v", p.EDP())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Tradeoff{}).Validate(); err == nil {
		t.Fatal("degenerate point accepted")
	}
}

func TestBestCapByEDP(t *testing.T) {
	// A cap that saves real energy at mild slowdown should beat the
	// uncapped point on EDP for a heavy workload.
	b, _ := workloads.ByName("B.hR105_hse")
	cr, err := MeasureCapResponse(MeasureSpec{Bench: b, Nodes: 1, Repeats: 1, Seed: 11}, []float64{400, 300, 200})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BestCapByEDP(cr)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Points[idx].CapW >= 400 {
		t.Fatalf("EDP-optimal cap is the default (%v W); capping should win on EDP", cr.Points[idx].CapW)
	}
	if _, err := BestCapByEDP(CapResponse{}); err == nil {
		t.Fatal("empty response accepted")
	}
}

func TestTradeoffOf(t *testing.T) {
	b, _ := workloads.ByName("B.hR105_hse")
	jp, err := Measure(MeasureSpec{Bench: b, Nodes: 1, Repeats: 1, CapW: 0, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tr := TradeoffOf(jp)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.RuntimeS != jp.Runtime || tr.EnergyJ != jp.EnergyJ {
		t.Fatal("trade-off point does not match profile")
	}
}
