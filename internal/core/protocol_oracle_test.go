package core

import (
	"vasppower/internal/cluster"
	"vasppower/internal/dft/method"
	"vasppower/internal/dft/solver"
	"vasppower/internal/dft/solver/solveroracle"
	"vasppower/internal/interconnect"
	"vasppower/internal/rng"
	"vasppower/internal/workloads"
)

// oracleMeasure is Measure written out serially on the step-by-step
// oracle executor (package solveroracle): per repeat, a fresh allocation
// from an identically-seeded pool under the spec's cap, then the
// schedule; the minimum-runtime repeat (lowest index on ties) is
// profiled. Measure and SweepContext are both pinned to it.
func oracleMeasure(spec MeasureSpec) (JobProfile, error) {
	spec = spec.withDefaults()
	if err := spec.Bench.Validate(); err != nil {
		return JobProfile{}, err
	}
	cfg, err := spec.Bench.Config(spec.Platform, spec.Nodes)
	if err != nil {
		return JobProfile{}, err
	}
	sched, err := method.Build(cfg)
	if err != nil {
		return JobProfile{}, err
	}
	if spec.Entropy != 0 {
		for i := range sched.Steps {
			if sched.Steps[i].Kind == method.StepGPU {
				sched.Steps[i].GPU.Entropy = spec.Entropy
			}
		}
	}
	root := rng.New(spec.Seed)
	var out workloads.RunOutput
	for r := 0; r < spec.Repeats; r++ {
		nodes, err := cluster.New(spec.Platform, spec.Nodes, spec.Seed).Allocate(spec.Nodes)
		if err != nil {
			return JobProfile{}, err
		}
		if spec.CapW > 0 {
			for _, n := range nodes {
				if err := n.SetGPUPowerLimits(spec.CapW); err != nil {
					return JobProfile{}, err
				}
			}
		}
		start := nodes[0].TraceDuration()
		res, err := solveroracle.Run(solver.Job{
			Name: spec.Bench.Name, Schedule: sched, Nodes: nodes,
			Decomp: cfg.Decomp, Fabric: interconnect.Slingshot(),
			Noise: solveroracle.Noise(root, r),
		})
		if err != nil {
			return JobProfile{}, err
		}
		out.Runtimes = append(out.Runtimes, res.Runtime)
		if r == 0 || res.Runtime < out.Runtimes[out.Best] {
			out.Best = r
			out.Nodes = nodes
			out.BestResult = res
			out.VASPStart, out.VASPEnd = start, nodes[0].TraceDuration()
		}
	}
	jp := ProfileRun(out, DefaultSamplingInterval)
	jp.Name = spec.Bench.Name
	return jp, nil
}
