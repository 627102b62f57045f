package experiments

import (
	"context"
	"fmt"
	"strings"

	"vasppower/internal/core"
	"vasppower/internal/hw/platform"
	"vasppower/internal/par"
	"vasppower/internal/report"
	"vasppower/internal/workloads"
)

// CapPoint is one (benchmark, cap) measurement.
type CapPoint struct {
	CapW        float64
	Runtime     float64
	RelPerf     float64 // baseline runtime / capped runtime
	GPUMode     float64 // mean per-GPU high power mode
	ModeOverCap float64
}

// CapStudyResult backs Figures 10 and 12: every Table I benchmark run
// at its optimal node count under 400/300/200/100 W GPU caps.
type CapStudyResult struct {
	// Series maps benchmark → points in decreasing-cap order.
	Series map[string][]CapPoint
	Nodes  map[string]int
	Caps   []float64
}

// StudyCapsFor lists the applied power caps (W) for a platform: the
// paper's sweep expressed as TDP fractions (100/75/50/25%), with any
// point below the GPU's settable floor raised to that floor. On
// perlmutter-a100 this is exactly the paper's 400/300/200/100 W.
func StudyCapsFor(p platform.Platform) []float64 {
	var caps []float64
	for _, frac := range []float64{1, 0.75, 0.5, 0.25} {
		c := p.GPU.TDP * frac
		if c < p.GPU.MinPowerLimit {
			c = p.GPU.MinPowerLimit
		}
		if n := len(caps); n > 0 && caps[n-1] == c {
			continue
		}
		caps = append(caps, c)
	}
	return caps
}

// RunCapStudy measures the cap sweep.
func RunCapStudy(cfg Config) (CapStudyResult, error) {
	res := CapStudyResult{
		Series: map[string][]CapPoint{},
		Nodes:  map[string]int{},
		Caps:   StudyCapsFor(cfg.platform()),
	}
	benches := workloads.TableI()
	if cfg.Quick {
		benches = benches[:0]
		for _, name := range []string{"B.hR105_hse", "GaAsBi-64"} {
			b, _ := workloads.ByName(name)
			benches = append(benches, b)
		}
	}
	// Per benchmark: one cap sweep — the uncapped baseline (slot 0)
	// plus every binding cap — shares one incremental sweep context via
	// measureGroup (a cap at or above the platform GPU's TDP is the
	// default limit and reuses the baseline). The parallel shards go
	// per benchmark so each group's resolution phase is paid once.
	tdp := cfg.platform().GPU.TDP
	var binding []float64
	for _, cap := range res.Caps {
		if cap < tdp {
			binding = append(binding, cap)
		}
	}
	benchNodes := func(b workloads.Benchmark) int {
		if cfg.Quick {
			return 1
		}
		return b.OptimalNodes
	}
	type sweep struct {
		jps []core.JobProfile
		err error
	}
	sweeps := make([]sweep, len(benches))
	par.ForEach(context.Background(), cfg.workers(), len(benches),
		func(_ context.Context, bi int) error {
			caps := append([]float64{0}, binding...)
			sweeps[bi].jps, sweeps[bi].err = measureGroup(
				cfg, benches[bi], benchNodes(benches[bi]), cfg.repeats(), caps)
			return sweeps[bi].err
		})
	for bi, b := range benches {
		res.Nodes[b.Name] = benchNodes(b)
		if sweeps[bi].err != nil {
			return res, sweeps[bi].err
		}
		jps := sweeps[bi].jps
		base := jps[0]
		bindIdx := 0
		for _, cap := range res.Caps {
			jp := base
			if cap < tdp {
				bindIdx++
				jp = jps[bindIdx]
			}
			pt := CapPoint{
				CapW:    cap,
				Runtime: jp.Runtime,
				GPUMode: jp.GPUHighMode(),
			}
			if jp.Runtime > 0 {
				pt.RelPerf = base.Runtime / jp.Runtime
			}
			if cap > 0 {
				pt.ModeOverCap = pt.GPUMode / cap
			}
			res.Series[b.Name] = append(res.Series[b.Name], pt)
		}
	}
	return res, nil
}

// Fig10Render renders the cap-efficacy view (Figure 10): high power
// mode per GPU as a fraction of the applied cap.
func (r CapStudyResult) Fig10Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 10 — power per GPU under caps, as fraction of the applied cap\n")
	sb.WriteString("(1.00 = exactly at the cap; >1 = overshoot — expected only at 100 W)\n\n")
	header := []string{"benchmark (nodes)"}
	for _, c := range r.Caps {
		header = append(header, fmt.Sprintf("%.0f W", c))
	}
	t := report.NewTable(header...)
	for _, name := range workloads.Names() {
		pts, ok := r.Series[name]
		if !ok {
			continue
		}
		row := []string{fmt.Sprintf("%s (%d)", name, r.Nodes[name])}
		for _, c := range r.Caps {
			cell := "-"
			for _, p := range pts {
				if p.CapW == c {
					cell = fmt.Sprintf("%.2f (%.0f W)", p.ModeOverCap, p.GPUMode)
				}
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	sb.WriteString(t.String())
	return sb.String()
}

// Fig12Render renders the performance-response view (Figure 12):
// performance normalized to the default 400 W limit.
func (r CapStudyResult) Fig12Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 12 — VASP performance under GPU power caps (1.00 = uncapped)\n\n")
	header := []string{"benchmark (nodes)"}
	for _, c := range r.Caps {
		header = append(header, fmt.Sprintf("%.0f W", c))
	}
	t := report.NewTable(header...)
	for _, name := range workloads.Names() {
		pts, ok := r.Series[name]
		if !ok {
			continue
		}
		row := []string{fmt.Sprintf("%s (%d)", name, r.Nodes[name])}
		for _, c := range r.Caps {
			cell := "-"
			for _, p := range pts {
				if p.CapW == c {
					cell = fmt.Sprintf("%.2f", p.RelPerf)
				}
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	sb.WriteString(t.String())
	sb.WriteString("\n(the paper's headline: 200 W = 50% TDP costs <10% for every workload)\n")
	return sb.String()
}
