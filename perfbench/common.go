package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
)

// derive turns the benchmark seed into the seed of one generated input.
// Each label gets an independent stream, so adding an input never
// shifts another's values; results stay in [1, 1e9] so they read well
// as program seeds.
func (e *env) derive(label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return 1 + splitmix64(e.seed^h.Sum64())%1_000_000_000
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// calibration is the subset of `calibrate -json` the accuracy metric
// reads: each benchmark's 1-node mode drift against the paper's
// published mode, and each cap point's slowdown against the band the
// paper's Figs 10-12 allow.
type calibration struct {
	Pass       bool         `json:"pass"`
	Benchmarks []benchDrift `json:"benchmarks"`
	CapChecks  []capCheck   `json:"cap_checks"`
}

type benchDrift struct {
	Name    string  `json:"name"`
	TargetW float64 `json:"target_w"`
	Drift   float64 `json:"drift"`
}

type capCheck struct {
	Bench    string  `json:"bench"`
	CapW     float64 `json:"cap_w"`
	Slowdown float64 `json:"slowdown"`
	Checked  bool    `json:"checked"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
}

// paperErrPct is the model's largest error against the paper: the
// largest relative 1-node mode drift, or the largest distance of a cap
// slowdown outside its published band, in percent.
func (c calibration) paperErrPct() float64 {
	worst := 0.0
	for _, b := range c.Benchmarks {
		if b.TargetW > 0 {
			worst = math.Max(worst, math.Abs(b.Drift))
		}
	}
	for _, cc := range c.CapChecks {
		if cc.Checked {
			worst = math.Max(worst, math.Max(cc.Min-cc.Slowdown, cc.Slowdown-cc.Max))
		}
	}
	return worst * 100
}

// paperErr runs `calibrate -json` and records paper_err_pct. The tool
// exits non-zero when the model drifts past its checked-in tolerances;
// that fails the accuracy gate.
func (e *env) paperErr(o *outcome) error {
	r, err := e.run("calibrate", "-json")
	o.op()
	if err != nil {
		o.gate("calibrate -json: %v", err)
		o.m["paper_err_pct"] = 0
		return nil
	}
	var c calibration
	if err := json.Unmarshal(r.stdout, &c); err != nil {
		return fmt.Errorf("calibrate -json output: %w", err)
	}
	if !c.Pass {
		o.gate("calibrate reports drift outside the checked-in tolerances")
	}
	o.m["paper_err_pct"] = c.paperErrPct()
	return nil
}
