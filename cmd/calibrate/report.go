package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"vasppower/internal/core"
	"vasppower/internal/hw/platform"
	"vasppower/internal/workloads"
)

// nodeTargets are the paper's published highest-power node modes at
// one node (Fig. 5 / §IV), the landing points calibration drives
// toward.
var nodeTargets = map[string]float64{
	"Si256_hse": 1810, "B.hR105_hse": 1430, "PdO4": 1150, "PdO2": 1000,
	"GaAsBi-64": 766, "CuC_vdw": 950, "Si128_acfdtr": 1814,
}

// capSweepBenches are the benchmarks whose cap response the report
// measures, at their optimal node counts (Figs. 10, 12).
var capSweepBenches = []string{"Si256_hse", "Si128_acfdtr", "GaAsBi-64", "PdO2"}

// capSweepCaps are the power-cap settings of the paper's sweep.
var capSweepCaps = []float64{400, 300, 200, 100}

// Tolerances is the checked-in drift budget (calibration-tolerances.json
// at the repo root): how far each landing point may move before CI
// fails the calibration-drift job.
type Tolerances struct {
	// DefaultTolerance is the allowed relative drift |mode−target|/target
	// for node-mode landing points without a per-benchmark override.
	DefaultTolerance float64            `json:"default_tolerance"`
	Benchmarks       map[string]float64 `json:"benchmarks,omitempty"`
	CapChecks        []CapTolerance     `json:"cap_checks,omitempty"`
}

// CapTolerance bounds the relative slowdown of one (benchmark, cap)
// point of the cap sweep.
type CapTolerance struct {
	Bench string  `json:"bench"`
	CapW  float64 `json:"cap_w"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

func defaultTolerances() Tolerances {
	return Tolerances{DefaultTolerance: 0.15}
}

func loadTolerances(path string) (Tolerances, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Tolerances{}, err
	}
	var t Tolerances
	if err := json.Unmarshal(blob, &t); err != nil {
		return Tolerances{}, fmt.Errorf("%s: %w", path, err)
	}
	if t.DefaultTolerance <= 0 {
		return Tolerances{}, fmt.Errorf("%s: default_tolerance must be positive", path)
	}
	return t, nil
}

func (t Tolerances) forBench(name string) float64 {
	if tol, ok := t.Benchmarks[name]; ok {
		return tol
	}
	return t.DefaultTolerance
}

func (t Tolerances) forCap(bench string, capW float64) (CapTolerance, bool) {
	for _, c := range t.CapChecks {
		if c.Bench == bench && c.CapW == capW {
			return c, true
		}
	}
	return CapTolerance{}, false
}

// BenchPoint is one benchmark's landing point against its published
// target.
type BenchPoint struct {
	Name      string  `json:"name"`
	Nodes     int     `json:"nodes"`
	RuntimeS  float64 `json:"runtime_s"`
	NodeModeW float64 `json:"node_mode_w"`
	TargetW   float64 `json:"target_w"`
	Drift     float64 `json:"drift"` // (mode − target)/target
	Tolerance float64 `json:"tolerance"`
	GPUModeW  float64 `json:"gpu_mode_w"`
	GPUShare  float64 `json:"gpu_share"`
	MeanNodeW float64 `json:"mean_node_w"`
	Pass      bool    `json:"pass"`
}

// CapCheck is one point of the cap sweep. Checked marks points with a
// tolerance bound; unchecked points are informational and always pass.
type CapCheck struct {
	Bench    string  `json:"bench"`
	Nodes    int     `json:"nodes"`
	CapW     float64 `json:"cap_w"`
	Slowdown float64 `json:"slowdown"` // runtime(cap)/runtime(uncapped) − 1
	GPUModeW float64 `json:"gpu_mode_w"`
	Checked  bool    `json:"checked"`
	Min      float64 `json:"min,omitempty"`
	Max      float64 `json:"max,omitempty"`
	Pass     bool    `json:"pass"`
}

// Report is the machine-readable calibration status: where the model
// lands against the paper's published targets, and whether every point
// is inside its drift budget.
type Report struct {
	Platform         string       `json:"platform"`
	TableHash        string       `json:"table_hash"`
	Seed             uint64       `json:"seed"`
	DefaultTolerance float64      `json:"default_tolerance"`
	Benchmarks       []BenchPoint `json:"benchmarks"`
	CapChecks        []CapCheck   `json:"cap_checks"`
	Pass             bool         `json:"pass"`
}

// buildReport measures every landing point through the given measure
// function (the cached path) and judges it against the tolerances.
func buildReport(measure func(core.MeasureSpec) (core.JobProfile, error), p platform.Platform, tol Tolerances, seed uint64) (Report, error) {
	rep := Report{
		Platform:         p.Name,
		Seed:             seed,
		DefaultTolerance: tol.DefaultTolerance,
		Pass:             true,
	}
	if p.Efficiency != nil {
		rep.TableHash = p.Efficiency.Hash()
	}
	for _, b := range workloads.TableI() {
		jp, err := measure(core.MeasureSpec{Bench: b, Platform: p, Nodes: 1, Seed: seed})
		if err != nil {
			return Report{}, fmt.Errorf("%s: %w", b.Name, err)
		}
		pt := BenchPoint{
			Name: b.Name, Nodes: 1,
			RuntimeS:  jp.Runtime,
			TargetW:   nodeTargets[b.Name],
			Tolerance: tol.forBench(b.Name),
			GPUShare:  jp.GPUShareOfNode(),
			MeanNodeW: jp.NodeTotal.Summary.Mean,
		}
		if m, ok := jp.NodeTotal.HighMode(); ok {
			pt.NodeModeW = m.X
		}
		if len(jp.GPUs) > 0 {
			m, _ := jp.GPUs[0].HighMode()
			pt.GPUModeW = m.X
		}
		if pt.TargetW > 0 {
			pt.Drift = (pt.NodeModeW - pt.TargetW) / pt.TargetW
			pt.Pass = pt.Drift >= -pt.Tolerance && pt.Drift <= pt.Tolerance
		} else {
			pt.Pass = true // no published target for this benchmark
		}
		if !pt.Pass {
			rep.Pass = false
		}
		rep.Benchmarks = append(rep.Benchmarks, pt)
	}
	tdp := p.GPU.TDP
	for _, name := range capSweepBenches {
		b, ok := workloads.ByName(name)
		if !ok {
			return Report{}, fmt.Errorf("unknown cap-sweep benchmark %q", name)
		}
		base, err := measure(core.MeasureSpec{Bench: b, Platform: p, Nodes: b.OptimalNodes, Seed: seed})
		if err != nil {
			return Report{}, fmt.Errorf("%s: %w", name, err)
		}
		for _, capW := range capSweepCaps {
			jp := base
			if capW > 0 && capW < tdp {
				jp, err = measure(core.MeasureSpec{Bench: b, Platform: p, Nodes: b.OptimalNodes, CapW: capW, Seed: seed})
				if err != nil {
					return Report{}, fmt.Errorf("%s @%v W: %w", name, capW, err)
				}
			}
			cc := CapCheck{
				Bench: name, Nodes: b.OptimalNodes, CapW: capW,
				Slowdown: jp.Runtime/base.Runtime - 1,
				GPUModeW: jp.GPUHighMode(),
				Pass:     true,
			}
			if bound, ok := tol.forCap(name, capW); ok {
				cc.Checked = true
				cc.Min, cc.Max = bound.Min, bound.Max
				cc.Pass = cc.Slowdown >= bound.Min && cc.Slowdown <= bound.Max
				if !cc.Pass {
					rep.Pass = false
				}
			}
			rep.CapChecks = append(rep.CapChecks, cc)
		}
	}
	return rep, nil
}

// writeJSON emits the report as indented JSON.
func (r Report) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// writeText renders the human-readable calibration summary the tool
// has always printed.
func (r Report) writeText(w io.Writer) {
	fmt.Fprintf(w, "=== Table I benchmarks @ 1 node (platform %s, table %s) ===\n", r.Platform, r.TableHash)
	fmt.Fprintf(w, "%-14s %9s %9s %9s %8s %9s %6s\n",
		"bench", "runtime", "nodeMode", "gpuMode", "gpuShare", "meanNode", "drift")
	for _, pt := range r.Benchmarks {
		status := ""
		if !pt.Pass {
			status = "  DRIFT"
		}
		fmt.Fprintf(w, "%-14s %8.0fs %6.0f W (tgt %4.0f) %6.0f W %7.1f%% %7.0f W %+5.1f%%%s\n",
			pt.Name, pt.RuntimeS, pt.NodeModeW, pt.TargetW, pt.GPUModeW,
			pt.GPUShare*100, pt.MeanNodeW, pt.Drift*100, status)
	}
	fmt.Fprintf(w, "\n=== Cap response (targets: 300W ~0%%, 200W ~9%% hungry, 100W ~60%% hungry / <5%% GaAsBi,PdO2) ===\n")
	last := ""
	for _, cc := range r.CapChecks {
		if cc.Bench != last {
			if last != "" {
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "%-14s @%d nodes:", cc.Bench, cc.Nodes)
			last = cc.Bench
		}
		status := ""
		if cc.Checked && !cc.Pass {
			status = "!"
		}
		fmt.Fprintf(w, " %3.0fW:%+5.1f%%(mode %3.0f)%s", cc.CapW, cc.Slowdown*100, cc.GPUModeW, status)
	}
	fmt.Fprintln(w)
	if r.Pass {
		fmt.Fprintln(w, "\ncalibration: PASS (all landing points inside tolerance)")
	} else {
		fmt.Fprintln(w, "\ncalibration: DRIFT (one or more landing points outside tolerance)")
	}
}
