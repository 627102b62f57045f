package workloads

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"vasppower/internal/hw/gpu"
	"vasppower/internal/hw/node"
	"vasppower/internal/hw/platform"
	"vasppower/internal/rng"
	"vasppower/internal/timeseries"
)

// TestEngineProperties checks the paper's physics as properties of the
// whole engine rather than per figure. Over random specs (platform,
// benchmark, 1 or 2 nodes, cap set, operand entropy, repeats), every measurement
// — through Run and through one Sweep per spec — must satisfy the
// properties below. About half of the specs also run through Run with
// the DGEMM/STREAM/idle prelude ("prelude"), whose traces must keep
// cap compliance, energy reconciliation over the VASP window, domain
// nesting and cap monotonicity.
//
//   - cap compliance: every GPU trace segment, and so every sample,
//     stays at or below the control loop's effective cap whenever the
//     cap is achievable (every kernel's minimum-clock power fits it);
//   - energy reconciliation: EnergyJ equals the node-total trace
//     integral over the VASP window, exactly;
//   - sensor composition: the node total equals CPU + DDR + GPUs +
//     peripheral power, between every pair of recorded instants,
//     exactly;
//   - domain nesting: the NVML gpu + memory scopes stay at or below
//     the module scope, and the module scope below the node sensor, at
//     every instant;
//   - node power range: the node sensor reads between the node's idle
//     power and the platform's node TDP throughout;
//   - cap monotonicity: runtime does not rise as the cap rises.
func TestEngineProperties(t *testing.T) {
	r := rng.New(2024)
	// The prelude and platform draws come from their own streams, so
	// the specs (and the subtest names) drawn from r stay as they were.
	preludes := rng.New(2025)
	platforms, plats := platform.List(), rng.New(2026)
	names := Names()
	capChecks := 0
	for i := 0; i < 60; i++ {
		p, err := platform.Get(platforms[plats.IntN(len(platforms))])
		if err != nil {
			t.Fatal(err)
		}
		b, _ := ByName(names[r.IntN(len(names))])
		spec := RunSpec{Bench: b, Platform: p, Nodes: 1 + r.IntN(2), Repeats: 1 + r.IntN(2), Seed: r.Uint64()}
		if r.Bool(0.5) {
			spec.OperandEntropy = uniform(r, 0.05, 1)
		}
		if _, err := b.Config(p, spec.Nodes); err != nil {
			spec.Nodes = 1
		}
		// Uncapped first, then the drawn caps from the highest down:
		// runtime may only grow along the list.
		caps := []float64{uniform(r, p.GPU.MinPowerLimit, p.GPU.TDP),
			uniform(r, p.GPU.MinPowerLimit, p.GPU.TDP), uniform(r, 200, p.GPU.TDP)}
		sort.Sort(sort.Reverse(sort.Float64Slice(caps)))
		caps = append([]float64{0}, caps...)
		label := fmt.Sprintf("%s nodes=%d repeats=%d entropy=%.2f", b.Name, spec.Nodes, spec.Repeats, spec.OperandEntropy)
		prelude := preludes.Bool(0.5)
		t.Run(label, func(t *testing.T) {
			floor := floorPower(t, spec)
			floors := map[string]float64{"run": floor, "sweep": floor}
			engines := []string{"run", "sweep"}
			if prelude {
				pre := spec
				pre.Prelude = true
				floors["prelude"] = floorPower(t, pre)
				engines = append(engines, "prelude")
			}
			sw, err := NewSweep(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer sw.Close()
			for _, engine := range engines {
				prev := 0.0
				for _, capW := range caps {
					var out RunOutput
					pt := spec
					pt.GPUPowerLimit = capW
					switch engine {
					case "run":
						out, err = Run(pt)
					case "prelude":
						pt.Prelude = true
						out, err = Run(pt)
					default:
						out, err = sw.RunCap(capW)
					}
					if err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("%s %s cap=%.1fW", p.Name, engine, capW)
					if rt := out.BestResult.Runtime; rt < prev {
						t.Fatalf("%s: runtime %v fell below the higher cap's %v", at, rt, prev)
					} else {
						prev = rt
					}
					checkEnergy(t, at, out)
					for _, n := range out.Nodes {
						checkTotal(t, at, n)
						checkNodeRange(t, at, n, p)
						checkDomains(t, at, n)
						if limit := effectiveCap(p.GPU, capW); floors[engine] <= limit {
							checkCap(t, at, n, limit)
							capChecks++
						}
					}
				}
			}
		})
	}
	if capChecks == 0 {
		t.Fatal("no drawn cap was achievable: cap compliance never checked")
	}
	t.Logf("cap compliance checked on %d node measurements", capChecks)
}

// effectiveCap restates the A100 control loop's slack: below 1.5× the
// settable floor the board holds a limit a quarter of the way back up
// to that threshold (§V-A's overshoot at 100 W).
func effectiveCap(sp gpu.Spec, capW float64) float64 {
	if capW <= 0 {
		return sp.TDP
	}
	if t := 1.5 * sp.MinPowerLimit; capW < t {
		return capW + 0.25*(t-capW)
	}
	return capW
}

// floorPower is the highest minimum-clock board power of any GPU step
// (the prelude's included, when the spec runs it) on any device of the
// spec's allocation: a cap is achievable exactly when its effective
// level is at least this.
func floorPower(t *testing.T, spec RunSpec) float64 {
	t.Helper()
	pr, err := resolve(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, nodes, err := pr.allocate()
	if err != nil {
		t.Fatal(err)
	}
	kernels := pr.sched.Kernels
	if spec.Prelude {
		kernels = append(slices.Clip(kernels),
			DGEMMSchedule(pr.platform.GPU, dgemmSeconds).Kernels[0],
			StreamSchedule(pr.platform.GPU, streamSeconds).Kernels[0])
	}
	floor := 0.0
	for _, k := range kernels {
		for _, n := range nodes {
			for _, g := range n.GPUs {
				if err := g.SetClockLimitMHz(g.Spec.MinClockFrac * g.Spec.MaxClockMHz); err != nil {
					t.Fatal(err)
				}
				prof, err := g.Resolve(k)
				if err != nil {
					t.Fatal(err)
				}
				s := gpu.NewCapSolver(g.Spec, k, prof)
				floor = max(floor, s.Solve(g).Power)
			}
		}
	}
	return floor
}

// checkEnergy: the reported energy is the node-sensor integral over
// the selected repeat's VASP window, summed over nodes — bit for bit.
func checkEnergy(t *testing.T, at string, out RunOutput) {
	t.Helper()
	var e float64
	for _, n := range out.Nodes {
		e += n.TotalTrace().EnergyBetween(out.VASPStart, out.VASPEnd)
	}
	if e != out.BestResult.EnergyJ {
		t.Fatalf("%s: EnergyJ %v, trace integral %v", at, out.BestResult.EnergyJ, e)
	}
}

// instants returns every segment end of the given traces, sorted, each
// once. Each trace is constant between two consecutive instants.
func instants(traces ...*timeseries.Trace) []float64 {
	var ends []float64
	for _, tr := range traces {
		for _, seg := range tr.Segments() {
			ends = append(ends, seg.End)
		}
	}
	slices.Sort(ends)
	return slices.Compact(ends)
}

// powerBefore is tr's power on the interval that ends at the instant
// x: the power of the first segment ending at or after x.
func powerBefore(tr *timeseries.Trace, x float64) float64 {
	segs := tr.Segments()
	i := sort.Search(len(segs), func(i int) bool { return segs[i].End >= x })
	return segs[i].Power
}

// checkTotal: between every pair of instants any component trace
// records, the node total is the component sum plus the peripheral
// draw, added in sensor order, and every trace ends at the same
// instant.
func checkTotal(t *testing.T, at string, n *node.Node) {
	t.Helper()
	comps := []*timeseries.Trace{n.CPUTrace(), n.MemTrace()}
	for gi := 0; gi < n.NumGPUs(); gi++ {
		comps = append(comps, n.GPUTrace(gi))
	}
	total := n.TotalTrace()
	for _, tr := range comps {
		if tr.Duration() != total.Duration() {
			t.Fatalf("%s: a component trace ends at %v, the node total at %v", at, tr.Duration(), total.Duration())
		}
	}
	for _, x := range instants(append(comps, total)...) {
		sum := powerBefore(comps[0], x) + powerBefore(comps[1], x)
		for _, tr := range comps[2:] {
			sum += powerBefore(tr, x)
		}
		sum += n.PeripheralPower()
		if got := powerBefore(total, x); got != sum {
			t.Fatalf("%s: node total %v up to t=%v, components sum to %v", at, got, x, sum)
		}
	}
}

// checkDomains: gpu + memory ≤ module ≤ node on every interval between
// the four domain traces' instants, compared exactly: every trace is
// recorded on the node's one clock, so a step boundary is one float in
// every domain.
func checkDomains(t *testing.T, at string, n *node.Node) {
	t.Helper()
	gpuT := n.DomainTrace(node.DomainGPU)
	memT := n.DomainTrace(node.DomainMemory)
	modT := n.DomainTrace(node.DomainModule)
	nodeT := n.DomainTrace(node.DomainNode)
	for _, x := range instants(gpuT, memT, modT, nodeT) {
		g, m := powerBefore(gpuT, x), powerBefore(memT, x)
		mod, nd := powerBefore(modT, x), powerBefore(nodeT, x)
		if g+m > mod {
			t.Fatalf("%s: up to t=%v gpu %v + memory %v exceeds module %v", at, x, g, m, mod)
		}
		if mod > nd {
			t.Fatalf("%s: up to t=%v module %v exceeds node %v", at, x, mod, nd)
		}
	}
}

// checkNodeRange: the node sensor never reads below the node's idle
// draw nor above the platform's node TDP.
func checkNodeRange(t *testing.T, at string, n *node.Node, p platform.Platform) {
	t.Helper()
	tr := n.TotalTrace()
	idle := n.IdlePower()
	for _, seg := range tr.Segments() {
		if seg.Power < idle {
			t.Fatalf("%s: node power %v W below its idle %v W", at, seg.Power, idle)
		}
	}
	if hi := tr.MaxPower(); hi > p.Node.TDP {
		t.Fatalf("%s: node power %v W above the %v W node TDP", at, hi, p.Node.TDP)
	}
}

// checkCap: no GPU segment — and so no sample, an average of segments
// — exceeds the effective cap.
func checkCap(t *testing.T, at string, n *node.Node, limit float64) {
	t.Helper()
	for gi := 0; gi < n.NumGPUs(); gi++ {
		if m := n.GPUTrace(gi).MaxPower(); m > limit*(1+1e-12) {
			t.Fatalf("%s: GPU %d draws %v W over the %v W effective cap", at, gi, m, limit)
		}
		if s := n.GPUTrace(gi).Sample(2); len(s.Values) > 0 {
			if m := maxOf(s.Values); m > limit*(1+1e-12) {
				t.Fatalf("%s: GPU %d sample %v W over the %v W effective cap", at, gi, m, limit)
			}
		}
	}
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		m = max(m, x)
	}
	return m
}

// uniform returns a uniform deviate in [lo, hi).
func uniform(r *rng.Stream, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }
