package workloads

import (
	"fmt"
	"sort"
	"testing"

	"vasppower/internal/dft/method"
	"vasppower/internal/hw/gpu"
	"vasppower/internal/hw/node"
	"vasppower/internal/hw/platform"
	"vasppower/internal/rng"
	"vasppower/internal/timeseries"
)

// TestEngineProperties checks the paper's physics as properties of the
// whole engine rather than per figure. Over random specs (benchmark,
// 1 or 2 nodes, cap set, operand entropy, repeats), every measurement
// — through Run and through one Sweep per spec — must satisfy:
//
//   - cap compliance: every GPU trace segment, and so every sample,
//     stays at or below the control loop's effective cap whenever the
//     cap is achievable (every kernel's minimum-clock power fits it);
//   - energy reconciliation: EnergyJ equals the node-total trace
//     integral over the VASP window, exactly;
//   - sensor composition: the node total equals CPU + DDR + GPUs +
//     peripheral power, segment by segment, exactly;
//   - domain nesting: the NVML gpu + memory scopes stay at or below
//     the module scope, and the module scope below the node sensor, at
//     every instant;
//   - node power range: the node sensor reads between the node's idle
//     power and the platform's node TDP throughout;
//   - cap monotonicity: runtime does not rise as the cap rises.
func TestEngineProperties(t *testing.T) {
	r := rng.New(2024)
	p := platform.Default()
	names := Names()
	capChecks := 0
	for i := 0; i < 10; i++ {
		b, _ := ByName(names[r.IntN(len(names))])
		spec := RunSpec{Bench: b, Nodes: 1 + r.IntN(2), Repeats: 1 + r.IntN(2), Seed: r.Uint64()}
		if r.Bool(0.5) {
			spec.OperandEntropy = r.Uniform(0.05, 1)
		}
		if _, err := b.Config(p, spec.Nodes); err != nil {
			spec.Nodes = 1
		}
		// Uncapped first, then the drawn caps from the highest down:
		// runtime may only grow along the list.
		caps := []float64{r.Uniform(p.GPU.MinPowerLimit, p.GPU.TDP),
			r.Uniform(p.GPU.MinPowerLimit, p.GPU.TDP), r.Uniform(200, p.GPU.TDP)}
		sort.Sort(sort.Reverse(sort.Float64Slice(caps)))
		caps = append([]float64{0}, caps...)
		label := fmt.Sprintf("%s nodes=%d repeats=%d entropy=%.2f", b.Name, spec.Nodes, spec.Repeats, spec.OperandEntropy)
		t.Run(label, func(t *testing.T) {
			floor := floorPower(t, spec)
			sw, err := NewSweep(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer sw.Close()
			for _, engine := range []string{"run", "sweep"} {
				prev := 0.0
				for _, capW := range caps {
					var out RunOutput
					if engine == "run" {
						pt := spec
						pt.GPUPowerLimit = capW
						out, err = Run(pt)
					} else {
						out, err = sw.RunCap(capW)
					}
					if err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("%s cap=%.1fW", engine, capW)
					if rt := out.BestResult.Runtime; rt < prev {
						t.Fatalf("%s: runtime %v fell below the higher cap's %v", at, rt, prev)
					} else {
						prev = rt
					}
					checkEnergy(t, at, out)
					for _, n := range out.Nodes {
						checkTotal(t, at, n)
						checkDomains(t, at, n)
						checkNodeRange(t, at, n, p)
						if limit := effectiveCap(p.GPU, capW); floor <= limit {
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
// on any device of the spec's allocation: a cap is achievable exactly
// when its effective level is at least this.
func floorPower(t *testing.T, spec RunSpec) float64 {
	t.Helper()
	pr, err := resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, nodes, err := pr.allocate()
	if err != nil {
		t.Fatal(err)
	}
	floor := 0.0
	for _, st := range pr.sched.Steps {
		if st.Kind != method.StepGPU {
			continue
		}
		for _, n := range nodes {
			for _, g := range n.GPUs {
				if err := g.SetClockLimitMHz(g.Spec.MinClockFrac * g.Spec.MaxClockMHz); err != nil {
					t.Fatal(err)
				}
				prof, err := g.Resolve(st.GPU)
				if err != nil {
					t.Fatal(err)
				}
				s := gpu.NewCapSolver(g.Spec, st.GPU, prof)
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

// checkTotal: at the middle of every node-total segment the total is
// the component sum plus the peripheral draw, added in sensor order.
func checkTotal(t *testing.T, at string, n *node.Node) {
	t.Helper()
	for _, seg := range n.TotalTrace().Segments() {
		mid := seg.Start + seg.Dur/2
		sum := n.CPUTrace().PowerAt(mid) + n.MemTrace().PowerAt(mid)
		for gi := 0; gi < n.NumGPUs(); gi++ {
			sum += n.GPUTrace(gi).PowerAt(mid)
		}
		sum += n.PeripheralPower()
		if sum != seg.Power {
			t.Fatalf("%s: node total %v at t=%v, components sum to %v", at, seg.Power, mid, sum)
		}
	}
}

// checkDomains: gpu + memory ≤ module ≤ node pointwise, checked at
// the midpoint of every interval between the four domain traces'
// merged boundaries (each trace is constant on such an interval).
//
// Boundaries closer than 1e-12 s + 1e-14·t are one instant. A trace
// stores durations, and its segment starts are re-accumulated from
// them, so one step boundary lands a few ulps apart in different
// domain traces (at most 3 ulps, 1.4e-12 s at t = 2680 s, over these
// specs). Between such twins lies a rounding sliver, not a time the
// model resolves: there one scope has switched and another not yet.
func checkDomains(t *testing.T, at string, n *node.Node) {
	t.Helper()
	gpuT := n.DomainTrace(node.DomainGPU)
	memT := n.DomainTrace(node.DomainMemory)
	modT := n.DomainTrace(node.DomainModule)
	nodeT := n.DomainTrace(node.DomainNode)
	var bounds []float64
	for _, tr := range []*timeseries.Trace{gpuT, memT, modT, nodeT} {
		for _, seg := range tr.Segments() {
			bounds = append(bounds, seg.Start, seg.End())
		}
	}
	sort.Float64s(bounds)
	prev := bounds[0]
	for _, b := range bounds[1:] {
		if b-prev <= 1e-12+1e-14*b {
			continue
		}
		mid := (prev + b) / 2
		prev = b
		g, m, mod, nd := gpuT.PowerAt(mid), memT.PowerAt(mid), modT.PowerAt(mid), nodeT.PowerAt(mid)
		if g+m > mod {
			t.Fatalf("%s: at t=%v gpu %v + memory %v exceeds module %v", at, mid, g, m, mod)
		}
		if mod > nd {
			t.Fatalf("%s: at t=%v module %v exceeds node %v", at, mid, mod, nd)
		}
	}
}

// checkNodeRange: the node sensor never reads below the node's idle
// draw nor above the platform's node TDP.
func checkNodeRange(t *testing.T, at string, n *node.Node, p platform.Platform) {
	t.Helper()
	tr := n.TotalTrace()
	if lo, idle := tr.MinPower(), n.IdlePower(); lo < idle {
		t.Fatalf("%s: node power %v W below its idle %v W", at, lo, idle)
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
