package workloads

import (
	"vasppower/internal/cluster"
	"vasppower/internal/dft/method"
	"vasppower/internal/dft/solver"
	"vasppower/internal/dft/solver/solveroracle"
	"vasppower/internal/hw/platform"
	"vasppower/internal/interconnect"
	"vasppower/internal/rng"
)

// oracleRun is the measurement protocol of Run, written out serially
// on the step-by-step oracle executor (package solveroracle): per
// repeat, a fresh allocation from an identically-seeded pool, the
// spec's limits, the optional DGEMM/STREAM/idle prelude, then the VASP
// schedule; the
// minimum-runtime repeat (lowest index on ties) is selected. Run and
// Sweep are both pinned to it.
func oracleRun(spec RunSpec) (RunOutput, error) {
	if err := spec.Bench.Validate(); err != nil {
		return RunOutput{}, err
	}
	p := platform.OrDefault(spec.Platform)
	cfg, err := spec.Bench.Config(p, spec.Nodes)
	if err != nil {
		return RunOutput{}, err
	}
	sched, err := method.Build(cfg)
	if err != nil {
		return RunOutput{}, err
	}
	if spec.OperandEntropy != 0 {
		for i := range sched.Steps {
			if sched.Steps[i].Kind == method.StepGPU {
				sched.Steps[i].GPU.Entropy = spec.OperandEntropy
			}
		}
	}
	repeats := max(spec.Repeats, 1)
	root := rng.New(spec.Seed)
	out := RunOutput{PhaseWindows: map[string][2]float64{}}
	for r := 0; r < repeats; r++ {
		nodes, err := cluster.New(p, spec.Nodes, spec.Seed).Allocate(spec.Nodes)
		if err != nil {
			return RunOutput{}, err
		}
		for _, n := range nodes {
			if spec.GPUPowerLimit > 0 {
				if err := n.SetGPUPowerLimits(spec.GPUPowerLimit); err != nil {
					return RunOutput{}, err
				}
			}
			if spec.GPUClockLimitMHz > 0 {
				if err := n.SetGPUClockLimits(spec.GPUClockLimitMHz); err != nil {
					return RunOutput{}, err
				}
			}
		}
		job := solver.Job{
			Name: spec.Bench.Name, Schedule: sched, Nodes: nodes,
			Decomp: cfg.Decomp, Fabric: interconnect.Slingshot(),
			Noise: solveroracle.Noise(root, r),
		}
		windows := map[string][2]float64{}
		mark := func(name string, do func() error) error {
			start := nodes[0].TraceDuration()
			err := do()
			windows[name] = [2]float64{start, nodes[0].TraceDuration()}
			return err
		}
		if spec.Prelude {
			for _, ph := range []struct {
				name  string
				sched *method.Schedule
			}{
				{"dgemm", DGEMMSchedule(p.GPU, dgemmSeconds)},
				{"stream", StreamSchedule(p.GPU, streamSeconds)},
			} {
				micro := job
				micro.Schedule = ph.sched
				if err := mark(ph.name, func() error { _, err := solveroracle.Run(micro); return err }); err != nil {
					return RunOutput{}, err
				}
			}
			mark("idle", func() error {
				for _, n := range nodes {
					n.RecordIdle(idleSeconds)
				}
				return nil
			})
		}
		var res solver.Result
		if err := mark("vasp", func() (err error) { res, err = solveroracle.Run(job); return err }); err != nil {
			return RunOutput{}, err
		}
		out.Runtimes = append(out.Runtimes, res.Runtime)
		if r == 0 || res.Runtime < out.Runtimes[out.Best] {
			out.Best = r
			out.Nodes = nodes
			out.BestResult = res
			out.VASPStart, out.VASPEnd = windows["vasp"][0], windows["vasp"][1]
			out.PhaseWindows = windows
		}
	}
	return out, nil
}
