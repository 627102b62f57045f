package workloads

import (
	"vasppower/internal/dft/method"
	"vasppower/internal/hw/node"
)

// Arena is the storage one worker's sweeps reuse, one sweep at a time:
// the schedule (its step list and descriptor table) and one trace bank
// per node of the last sweep. A sweep built in an arena (NewSweepIn)
// builds its schedule into the arena's and records into the arena's
// banks, and its Close hands both back: a sweep allocates neither once
// the arena has held a schedule as long and its last sweep ran on as
// many nodes, with traces as long. Arena storage is only ever
// reachable from the one live sweep: outputs that outlive it
// (profiles) must be copied out before Close. The zero value is ready to use; a nil *Arena
// allocates everything per sweep.
type Arena struct {
	sched method.Schedule
	banks []node.TraceBank
}

// build builds cfg's schedule into the arena's schedule storage, which
// then holds it until reclaim.
func (a *Arena) build(cfg method.Config) (*method.Schedule, error) {
	if a == nil {
		return method.Build(cfg)
	}
	if err := method.BuildInto(&a.sched, cfg); err != nil {
		return nil, err
	}
	return &a.sched, nil
}

// lend moves the arena's trace storage into freshly allocated nodes,
// before their run's solver.Prepare sizes it.
func (a *Arena) lend(nodes []*node.Node) {
	if a == nil {
		return
	}
	for len(a.banks) < len(nodes) {
		a.banks = append(a.banks, node.TraceBank{})
	}
	for i, n := range nodes {
		n.ExchangeStorage(&a.banks[i])
	}
}

// reclaim takes the trace storage back from the nodes lend filled
// (none when a sweep failed before allocating) and clears the schedule
// storage, so the arena holds no schedule or trace of the finished
// sweep, only its capacity. Banks beyond those nodes are dropped:
// kept idle through runs on fewer nodes, they raised the live heap the
// collector paces to, and with it peak RSS, by more than reusing them
// saved.
func (a *Arena) reclaim(nodes []*node.Node) {
	if a == nil {
		return
	}
	for i, n := range nodes {
		n.ExchangeStorage(&a.banks[i])
	}
	clear(a.banks[len(nodes):])
	a.banks = a.banks[:len(nodes)]
	a.sched = method.Schedule{Kernels: a.sched.Kernels[:0], Steps: a.sched.Steps[:0]}
}
