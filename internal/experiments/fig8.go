package experiments

import (
	"context"
	"fmt"
	"strings"

	"vasppower/internal/core"
	"vasppower/internal/par"
	"vasppower/internal/report"
	"vasppower/internal/workloads"
)

// Fig8Point is one concurrency measurement.
type Fig8Point struct {
	Nodes    int
	NodeMode float64
	NodeMean float64
	EnergyMJ float64
	Runtime  float64
	ParEff   float64
}

// Fig8Result reproduces Figure 8: Si256_hse power per node (left
// axis) and energy to solution (right axis) across concurrencies.
// Reproduced findings: the per-node high power mode holds steady
// while parallel efficiency stays ≥ ~70%, drops at higher node
// counts, and energy to solution rises monotonically with
// concurrency.
type Fig8Result struct {
	Bench  string
	Points []Fig8Point
}

// RunFig8 measures the concurrency sweep.
func RunFig8(cfg Config) (Fig8Result, error) {
	bench, _ := workloads.ByName("Si256_hse")
	counts := []int{1, 2, 4, 8, 16, 32}
	if cfg.Quick {
		counts = []int{1, 2, 4}
	}
	res := Fig8Result{Bench: bench.Name}
	// Per-count errors are benign (the series stops at the count that
	// cannot run), so fn never fails; assembly below truncates exactly
	// where the serial sweep did.
	type cell struct {
		jp  core.JobProfile
		err error
	}
	cells := make([]cell, len(counts))
	par.ForEach(context.Background(), cfg.workers(), len(counts),
		func(_ context.Context, i int) error {
			cells[i].jp, cells[i].err = measure(cfg, bench, counts[i], cfg.repeats(), 0)
			return nil
		})
	var baseRuntime float64
	for i, n := range counts {
		if cells[i].err != nil {
			break
		}
		jp := cells[i].jp
		if i == 0 {
			baseRuntime = jp.Runtime * float64(counts[0])
		}
		pt := Fig8Point{
			Nodes:    n,
			NodeMode: highMode(jp),
			NodeMean: jp.NodeTotal.Summary.Mean,
			EnergyMJ: jp.EnergyJ / 1e6,
			Runtime:  jp.Runtime,
		}
		if jp.Runtime > 0 {
			pt.ParEff = baseRuntime / jp.Runtime / float64(n)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Render draws the sweep.
func (r Fig8Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 8 — power and energy-to-solution vs concurrency (%s)\n\n", r.Bench)
	t := report.NewTable("nodes", "par. eff.", "node mode", "node mean", "energy", "runtime")
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%.0f%%", p.ParEff*100),
			fmt.Sprintf("%.0f W", p.NodeMode),
			fmt.Sprintf("%.0f W", p.NodeMean),
			fmt.Sprintf("%.2f MJ", p.EnergyMJ),
			report.Seconds(p.Runtime),
		)
	}
	sb.WriteString(t.String())
	return sb.String()
}
