package experiments

import (
	"fmt"
	"sort"
	"strings"

	"vasppower/internal/report"
	"vasppower/internal/timeseries"
	"vasppower/internal/workloads"
)

// Fig1Result reproduces Figure 1: per-node power of a multi-node
// Si256_hse job whose script runs STREAM, DGEMM, and an idle window
// before VASP, exposing node-to-node manufacturing variability.
type Fig1Result struct {
	Bench string
	Nodes int
	// PerNode holds each node's node-level power series (effective
	// 2 s telemetry).
	PerNode map[string]timeseries.Series
	// PhaseMeans[node][phase] is the mean node power per phase.
	PhaseMeans map[string]map[string]float64
	// Spread[phase] is the max−min across nodes of the phase mean —
	// the variability the paper attributes to manufacturing
	// differences (§III-B.2).
	Spread map[string]float64
	// Windows records each phase's [start, end).
	Windows map[string][2]float64
}

// Fig1Phases lists the job-script phases in execution order.
func Fig1Phases() []string { return []string{"dgemm", "stream", "idle", "vasp"} }

// RunFig1 executes the protocol run and measures it.
func RunFig1(cfg Config) (Fig1Result, error) {
	bench, _ := workloads.ByName("Si256_hse")
	nodes := 4
	if cfg.Quick {
		bench, _ = workloads.ByName("B.hR105_hse")
		nodes = 2
	}
	out, err := workloads.Run(workloads.RunSpec{
		Bench:    bench,
		Platform: cfg.platform(),
		Nodes:    nodes,
		Repeats:  1,
		Prelude:  true,
		Seed:     cfg.seed(),
		Sink:     cfg.Env.Sampler(),
	})
	if err != nil {
		return Fig1Result{}, err
	}
	res := Fig1Result{
		Bench:      bench.Name,
		Nodes:      nodes,
		PerNode:    map[string]timeseries.Series{},
		PhaseMeans: map[string]map[string]float64{},
		Spread:     map[string]float64{},
		Windows:    map[string][2]float64{},
	}
	for phase, w := range out.PhaseWindows {
		res.Windows[phase] = w
	}
	for _, n := range out.Nodes {
		tr := n.TotalTrace()
		res.PerNode[n.Name] = tr.Sample(2.0)
		res.PhaseMeans[n.Name] = map[string]float64{}
		for phase, w := range res.Windows {
			// Exact window means from the trace (no sampling bleed at
			// phase boundaries).
			res.PhaseMeans[n.Name][phase] = tr.MeanBetween(w[0], w[1])
		}
	}
	for _, phase := range Fig1Phases() {
		lo, hi := 1e18, -1e18
		for _, n := range out.Nodes {
			v := res.PhaseMeans[n.Name][phase]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		res.Spread[phase] = hi - lo
	}
	return res, nil
}

// Render draws the per-node timelines and the phase table.
func (r Fig1Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 1 — per-node power, %d-node %s job (DGEMM, STREAM, idle, then VASP)\n\n",
		r.Nodes, r.Bench)
	var names []string
	for n := range r.PerNode {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sb.WriteString(report.SeriesLine(n, r.PerNode[n], 70))
		sb.WriteString("\n")
	}
	sb.WriteString("\n")
	t := report.NewTable(append([]string{"node"}, Fig1Phases()...)...)
	for _, n := range names {
		row := []string{n}
		for _, p := range Fig1Phases() {
			row = append(row, fmt.Sprintf("%.0f W", r.PhaseMeans[n][p]))
		}
		t.AddRow(row...)
	}
	row := []string{"spread"}
	for _, p := range Fig1Phases() {
		row = append(row, fmt.Sprintf("%.0f W", r.Spread[p]))
	}
	t.AddRow(row...)
	sb.WriteString(t.String())
	return sb.String()
}
