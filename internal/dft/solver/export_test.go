package solver

// CapSolvers reports how many cap solvers Prepare built: one per
// distinct work descriptor of the schedule's GPU steps.
func (p *Prepared) CapSolvers() int { return len(p.kernels) }

// Run prepares the job and executes it once, appending to each node's
// traces (callers reset traces between repeats), with jitter drawn from
// job.Noise, and returns the summary, energy settled by NodeEnergy.
func Run(job Job) (Result, error) {
	p, err := Prepare(job)
	if err != nil {
		return Result{}, err
	}
	start := job.Nodes[0].TraceDuration()
	res := p.RunNoEnergy(job.Noise)
	res.EnergyJ = NodeEnergy(job.Nodes, start)
	return res, nil
}
