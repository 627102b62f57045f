package experiments

import (
	"context"
	"fmt"
	"strings"

	"vasppower/internal/core"
	"vasppower/internal/par"
	"vasppower/internal/report"
	"vasppower/internal/stats"
	"vasppower/internal/workloads"
)

// Fig3Entry is one benchmark's single-node component-power profile.
type Fig3Entry struct {
	Bench   string
	Profile core.JobProfile
	// Node-level distribution summary (text box of the figure).
	Max, Median, Min, HighMode float64
	MultiModal                 bool
}

// Fig3Result reproduces Figure 3: component power timelines and node
// power histograms for Si256_hse, GaAsBi-64, and Si128_acfdtr on one
// node. Findings reproduced: flat vs highly-variable timelines, the
// CPU-only valley of ACFDTR, GPUs >70% of node power for the heavy
// benchmarks with CPU+memory <10%, node modes spanning ≈766–1814 W,
// and non-normal, at-least-bimodal distributions.
type Fig3Result struct {
	Entries []Fig3Entry
}

// Fig3Benchmarks lists the figure's benchmarks.
func Fig3Benchmarks() []string { return []string{"Si256_hse", "GaAsBi-64", "Si128_acfdtr"} }

// RunFig3 measures the three profiles.
func RunFig3(cfg Config) (Fig3Result, error) {
	var res Fig3Result
	names := Fig3Benchmarks()
	if cfg.Quick {
		names = []string{"GaAsBi-64", "Si128_acfdtr"}
	}
	entries := make([]Fig3Entry, len(names))
	err := par.ForEach(context.Background(), cfg.workers(), len(names),
		func(_ context.Context, i int) error {
			name := names[i]
			b, ok := workloads.ByName(name)
			if !ok {
				return fmt.Errorf("experiments: unknown benchmark %s", name)
			}
			jp, err := measure(cfg, b, 1, cfg.repeats(), 0)
			if err != nil {
				return err
			}
			e := Fig3Entry{Bench: name, Profile: jp}
			e.Max = jp.NodeTotal.Summary.Max
			e.Median = jp.NodeTotal.Summary.Median
			e.Min = jp.NodeTotal.Summary.Min
			e.HighMode = highMode(jp)
			e.MultiModal = len(jp.NodeTotal.Modes()) >= 2
			entries[i] = e
			return nil
		})
	if err != nil {
		return res, err
	}
	res.Entries = entries
	return res, nil
}

// Render draws the timelines, component breakdown, and histograms.
func (r Fig3Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 3 — component power timelines and node power distributions (1 node)\n")
	for _, e := range r.Entries {
		jp := e.Profile
		fmt.Fprintf(&sb, "\n%s  (runtime %s, energy %.2f MJ)\n", e.Bench,
			report.Seconds(jp.Runtime), jp.EnergyJ/1e6)
		sb.WriteString(report.SeriesLine("node", jp.NodeTotal.Series, 70) + "\n")
		sb.WriteString(report.SeriesLine("gpu0", jp.GPUs[0].Series, 70) + "\n")
		sb.WriteString(report.SeriesLine("cpu", jp.CPU.Series, 70) + "\n")
		sb.WriteString(report.SeriesLine("memory", jp.Mem.Series, 70) + "\n")
		fmt.Fprintf(&sb, "max %.0f  median %.0f  min %.0f  high-mode %.0f W  (GPUs %.0f%% of node, CPU+mem %.0f%%)\n",
			e.Max, e.Median, e.Min, e.HighMode,
			jp.GPUShareOfNode()*100, jp.CPUMemShareOfNode()*100)
		if s := jp.NodeTotal.Summary; jp.NodeTotal.Series.Len() > 1 && s.Max > s.Min {
			h := stats.NewHistogram(jp.NodeTotal.Series.Values, 18, s.Min, s.Max)
			sb.WriteString("node power histogram:\n")
			sb.WriteString(report.HistogramText(h, 40))
		}
	}
	return sb.String()
}
