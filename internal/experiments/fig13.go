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

// Fig13Result reproduces Figure 13: Si256_hse performance under GPU
// caps at several node counts, normalized per node count. Reproduced
// finding: the response is essentially concurrency-independent —
// unaffected at 300 W, ~9% at 200 W, drastic at 100 W — so a
// scheduler can cap without knowing the job's node count.
type Fig13Result struct {
	Bench string
	Caps  []float64
	// RelPerf[nodes][i] is performance at Caps[i] normalized to that
	// node count's uncapped run.
	RelPerf map[int][]float64
	Counts  []int
}

// RunFig13 measures the cap × concurrency grid.
func RunFig13(cfg Config) (Fig13Result, error) {
	bench, _ := workloads.ByName("Si256_hse")
	counts := []int{1, 2, 4, 8}
	if cfg.Quick {
		bench, _ = workloads.ByName("B.hR105_hse")
		counts = []int{1, 2}
	}
	res := Fig13Result{
		Bench:   bench.Name,
		Caps:    StudyCapsFor(cfg.platform()),
		RelPerf: map[int][]float64{},
		Counts:  counts,
	}
	// Per node count: slot 0 is the uncapped baseline, slot 1+ci is
	// Caps[ci] when it binds (below the platform GPU's TDP).
	type cell struct {
		jp  core.JobProfile
		err error
	}
	tdp := cfg.platform().GPU.TDP
	stride := 1 + len(res.Caps)
	cells := make([]cell, len(counts)*stride)
	need := make([]bool, len(cells))
	for ni := range counts {
		need[ni*stride] = true
		for ci, cap := range res.Caps {
			if cap < tdp {
				need[ni*stride+1+ci] = true
			}
		}
	}
	par.ForEach(context.Background(), cfg.workers(), len(cells),
		func(_ context.Context, i int) error {
			if !need[i] {
				return nil
			}
			n := counts[i/stride]
			capW := 0.0
			if r := i % stride; r > 0 {
				capW = res.Caps[r-1]
			}
			cells[i].jp, cells[i].err = measure(cfg, bench, n, cfg.repeats(), capW)
			return cells[i].err
		})
	for ni, n := range counts {
		base := cells[ni*stride]
		if base.err != nil {
			return res, base.err
		}
		var rels []float64
		for ci, cap := range res.Caps {
			jp := base.jp
			if cap < tdp {
				c := cells[ni*stride+1+ci]
				if c.err != nil {
					return res, c.err
				}
				jp = c.jp
			}
			rels = append(rels, base.jp.Runtime/jp.Runtime)
		}
		res.RelPerf[n] = rels
	}
	return res, nil
}

// Render draws the grid.
func (r Fig13Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 13 — %s performance under caps at varied node counts (1.00 = uncapped at that count)\n\n", r.Bench)
	header := []string{"nodes"}
	for _, c := range r.Caps {
		header = append(header, fmt.Sprintf("%.0f W", c))
	}
	t := report.NewTable(header...)
	for _, n := range r.Counts {
		row := []string{fmt.Sprintf("%d", n)}
		for i := range r.Caps {
			if rels, ok := r.RelPerf[n]; ok && i < len(rels) {
				row = append(row, fmt.Sprintf("%.2f", rels[i]))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	sb.WriteString(t.String())
	return sb.String()
}
