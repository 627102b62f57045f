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

// CapStudyResult backs Figures 10 and 12: every Table I benchmark run
// at its optimal node count under 400/300/200/100 W GPU caps.
type CapStudyResult struct {
	// Responses maps benchmark → its response, points in Caps order.
	Responses map[string]core.CapResponse
	Caps      []float64
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
		Responses: map[string]core.CapResponse{},
		Caps:      StudyCapsFor(cfg.platform()),
	}
	benches := workloads.TableI()
	if cfg.Quick {
		benches = benches[:0]
		for _, name := range []string{"B.hR105_hse", "GaAsBi-64"} {
			b, _ := workloads.ByName(name)
			benches = append(benches, b)
		}
	}
	// Per benchmark: one cap sweep — the uncapped baseline plus every
	// binding cap — shares one incremental sweep context through the
	// Env's MeasureGroup. The parallel shards go per benchmark so each
	// group's resolution phase is paid once.
	responses := make([]core.CapResponse, len(benches))
	err := par.ForEach(context.Background(), cfg.workers(), len(benches),
		func(_ context.Context, bi int) error {
			nodes := benches[bi].OptimalNodes
			if cfg.Quick {
				nodes = 1
			}
			spec := cfg.spec(benches[bi], nodes, cfg.repeats())
			var err error
			responses[bi], err = core.AssembleCapResponse(spec, res.Caps, func(points []float64) ([]core.JobProfile, error) {
				return cfg.env().MeasureGroup(spec, points)
			})
			return err
		})
	if err != nil {
		return res, err
	}
	for bi, b := range benches {
		res.Responses[b.Name] = responses[bi]
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
		cr, ok := r.Responses[name]
		if !ok {
			continue
		}
		row := []string{fmt.Sprintf("%s (%d)", name, cr.Nodes)}
		for _, c := range r.Caps {
			cell := "-"
			for _, p := range cr.Points {
				if p.CapW == c {
					cell = fmt.Sprintf("%.2f (%.0f W)", p.ModeOverCap, p.GPUHighMode)
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
		cr, ok := r.Responses[name]
		if !ok {
			continue
		}
		row := []string{fmt.Sprintf("%s (%d)", name, cr.Nodes)}
		for _, c := range r.Caps {
			cell := "-"
			for _, p := range cr.Points {
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
