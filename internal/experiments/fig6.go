package experiments

import (
	"context"
	"fmt"
	"strings"

	"vasppower/internal/dft/method"
	"vasppower/internal/par"
	"vasppower/internal/report"
	"vasppower/internal/workloads"
)

// Fig6Point is one supercell size's measurement.
type Fig6Point struct {
	Atoms      int
	NPLWV      int
	NBands     int
	NodeMode   float64
	NodeFWHM   float64
	GPUSumMode float64 // high power mode of the four GPUs combined
	GPUSumFWHM float64
	Runtime    float64
}

// Fig6Result reproduces Figure 6: power vs system size for silicon
// supercells under the plain-DFT default scheme on one node. The
// reproduced shape: power rises with atom count and plateaus when the
// combined GPU draw approaches 4×TDP (≈2048 atoms in the paper).
type Fig6Result struct {
	Points    []Fig6Point
	NodeTDP   float64
	GPUTDPSum float64
}

// fig6Sizes returns the swept supercell sizes.
func fig6Sizes(cfg Config) []int {
	if cfg.Quick {
		return []int{64, 256, 1024}
	}
	return []int{16, 32, 64, 128, 256, 512, 1024, 2048, 3456}
}

// RunFig6 sweeps the supercell family.
func RunFig6(cfg Config) (Fig6Result, error) {
	res := Fig6Result{NodeTDP: 2350, GPUTDPSum: 1600}
	sizes := fig6Sizes(cfg)
	pts := make([]Fig6Point, len(sizes))
	err := par.ForEach(context.Background(), cfg.workers(), len(sizes),
		func(_ context.Context, i int) error {
			b, err := workloads.SiliconBenchmark(sizes[i], method.DFTBD)
			if err != nil {
				return err
			}
			jp, err := measure(cfg, b, 1, cfg.repeats(), 0)
			if err != nil {
				return err
			}
			pt := Fig6Point{
				Atoms:   sizes[i],
				NPLWV:   b.NPLWV(),
				NBands:  b.NBands,
				Runtime: jp.Runtime,
			}
			if m, ok := jp.NodeTotal.HighMode(); ok {
				pt.NodeMode, pt.NodeFWHM = m.X, m.FWHM
			}
			if m, ok := jp.GPUSum.HighMode(); ok {
				pt.GPUSumMode, pt.GPUSumFWHM = m.X, m.FWHM
			}
			pts[i] = pt
			return nil
		})
	if err != nil {
		return res, err
	}
	res.Points = pts
	return res, nil
}

// Render draws the size sweep.
func (r Fig6Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 6 — power vs system size (silicon supercells, DFT, 1 node)\n\n")
	t := report.NewTable("atoms", "NPLWV", "NBANDS", "node mode ± FWHM", "4-GPU mode ± FWHM", "runtime")
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprintf("%d", p.Atoms),
			fmt.Sprintf("%d", p.NPLWV),
			fmt.Sprintf("%d", p.NBands),
			fmt.Sprintf("%.0f ± %.0f W", p.NodeMode, p.NodeFWHM),
			fmt.Sprintf("%.0f ± %.0f W", p.GPUSumMode, p.GPUSumFWHM),
			report.Seconds(p.Runtime),
		)
	}
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "\nnode TDP %.0f W; combined GPU TDP %.0f W\n", r.NodeTDP, r.GPUTDPSum)
	var modes []float64
	for _, p := range r.Points {
		modes = append(modes, p.GPUSumMode)
	}
	sb.WriteString("4-GPU mode vs size: " + report.Sparkline(modes, len(modes)) + "\n")
	return sb.String()
}
