package solver

// CapSolvers reports how many cap solvers Prepare built: one per
// distinct work descriptor of the schedule's GPU steps.
func (p *Prepared) CapSolvers() int { return len(p.kernels) }
