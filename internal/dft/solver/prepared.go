package solver

import (
	"fmt"

	"vasppower/internal/dft/method"
	"vasppower/internal/hw/gpu"
	"vasppower/internal/hw/node"
	"vasppower/internal/interconnect"
	"vasppower/internal/rng"
)

// Prepared is a job split into its cap-independent part, done once,
// and the cap-dependent remainder, re-run per call: the step executor
// of every run. Prepare validates the schedule, resolves each work
// descriptor its GPU steps run through the (shared) platform
// efficiency table into a gpu.CapSolver, runs CPU-step tasks, prices
// collectives on the fabric, and tabulates the per-node powers that do
// not depend on the GPUs' cap state. What remains per run is the cap
// solver's clock decision per (GPU step, device), the jitter draws,
// and trace recording.
//
// The split leans on a structural fact of the model: a step's wall
// time and recorded powers depend on the cap only through
// gpu.Execution values, and those depend only on (kernel, device,
// device cap state) — never on trace history or step position. So a
// table of executions per GPU step × device, rebuilt when the cap
// changes, reproduces the step-by-step executor's arithmetic exactly;
// the differential tests in prepared_test.go pin every float against
// it (package solveroracle).
//
// Layout is flat and sized by the schedule, not by nodes × steps. A
// schedule carries its distinct work descriptors as a table (the
// Table I schedules have 6–8 across hundreds to thousands of GPU
// steps), so there is one CapSolver per table entry a step runs,
// validated and resolved once, and GPU steps index into that table.
// Each CapSolver is shared by every device, since devices of one spec
// differ only by variability scalars folded in at solve time. DDR
// power is a row per (memory-activity level, node), of which a
// schedule has a handful.
//
// A Prepared is not safe for concurrent use.
type Prepared struct {
	nodes []*node.Node
	// devs lists every GPU of the job node-major; node ni owns
	// devs[devOff[ni]:devOff[ni+1]].
	devs   []*gpu.GPU
	devOff []int

	steps []prepStep

	kernels []gpu.CapSolver // one per descriptor the steps run, in first-use order
	// execs[ki*len(devs)+d] is descriptor ki's execution on device d
	// under the current cap/clock state, rebuilt lazily after a Set*
	// call.
	execs      []devExec
	execsValid bool

	// Per-node cap-independent constants.
	hostOrchW []float64   // CPU host-orchestration power
	gpuIdle   [][]float64 // per-device board idle power
	hbmIdle   [][]float64 // per-device HBM-domain idle share
	commGPUs  [][]float64 // gpuIdle + commGPUPower
	memW      []float64   // memW[level*len(nodes)+ni]: DDR power at levels[level]
	cpuW      []float64   // cpuW[ci*len(nodes)+ni]: CPU step ci's CPU power

	// Reusable scratch, so steady-state runs allocate nothing.
	gpuCP []node.ComponentPowers // per node, slices preallocated
}

// prepStep is one schedule step with its cap-independent work done.
type prepStep struct {
	kind  method.StepKind
	level int32 // memory-activity level, index into memW rows
	// idx is the GPU step's descriptor (kernels, execs) or the CPU
	// step's ordinal among CPU steps (its cpuW row).
	idx int32
	// preDur is the pre-jitter wall duration of a CPU, comm or host
	// step (CPU: the barrier maximum over nodes).
	preDur float64
}

// devExec is the part of a gpu.Execution the recorder reads.
type devExec struct{ dur, power, memW float64 }

// Prepare validates the job and performs every cap-independent piece
// of its execution. The job's Noise field is ignored — each run takes
// its own stream, which is what lets one Prepared serve many repeats
// and cap points.
func Prepare(job Job) (*Prepared, error) {
	if job.Schedule == nil || len(job.Schedule.Steps) == 0 {
		return nil, fmt.Errorf("solver: empty schedule")
	}
	if len(job.Nodes) == 0 {
		return nil, fmt.Errorf("solver: no nodes")
	}
	if job.Decomp.Nodes != len(job.Nodes) {
		return nil, fmt.Errorf("solver: decomposition spans %d nodes but %d allocated",
			job.Decomp.Nodes, len(job.Nodes))
	}
	nn := len(job.Nodes)
	p := &Prepared{
		nodes:     job.Nodes,
		devOff:    make([]int, nn+1),
		hostOrchW: make([]float64, nn),
		gpuIdle:   make([][]float64, nn),
		hbmIdle:   make([][]float64, nn),
		commGPUs:  make([][]float64, nn),
		gpuCP:     make([]node.ComponentPowers, nn),
	}

	// One efficiency table and one spec must serve every device: each
	// GPU step is resolved once, and its CapSolver shared by all
	// devices, on that basis.
	var dev0 *gpu.GPU
	for ni, n := range job.Nodes {
		p.hostOrchW[ni] = n.CPU.HostOrchestrationPower()
		g := n.NumGPUs()
		idle := make([]float64, 3*g)
		p.gpuIdle[ni], p.hbmIdle[ni], p.commGPUs[ni] = idle[:g:g], idle[g:2*g:2*g], idle[2*g:]
		for gi, dev := range n.GPUs {
			p.gpuIdle[ni][gi] = dev.IdlePower()
			p.hbmIdle[ni][gi] = dev.HBMIdlePower()
			p.commGPUs[ni][gi] = dev.IdlePower() + commGPUPower
			if dev0 == nil {
				dev0 = dev
			} else if dev.Model() != dev0.Model() || dev.Spec != dev0.Spec {
				return nil, fmt.Errorf("solver: nodes mix GPU models (prepare requires one spec and efficiency table per job)")
			}
			p.devs = append(p.devs, dev)
		}
		p.devOff[ni+1] = len(p.devs)
		cp := make([]float64, 2*g)
		p.gpuCP[ni] = node.ComponentPowers{GPUs: cp[:g:g], GPUMems: cp[g:]}
	}

	sched := job.Schedule
	steps := sched.Steps
	var cpuSteps int
	for si := range steps {
		if steps[si].Kind == method.StepCPU {
			cpuSteps++
		}
	}
	p.steps = make([]prepStep, len(steps))
	p.cpuW = make([]float64, 0, cpuSteps*nn)
	// solverOf maps a descriptor's table index to its kernels index
	// plus one (0: not yet resolved). The first step that runs a
	// descriptor validates and resolves it, so an error names that
	// step, and an entry no step runs costs nothing.
	solverOf := make([]int32, len(sched.Kernels))
	var levels []float64
	for si := range steps {
		st := &steps[si]
		ps := prepStep{kind: st.Kind, level: int32(len(levels))}
		for li, a := range levels {
			if a == st.MemActivity {
				ps.level = int32(li)
				break
			}
		}
		if int(ps.level) == len(levels) {
			levels = append(levels, st.MemActivity)
			for _, n := range job.Nodes {
				// DDR power interpolates between idle and active with
				// the step's memory-activity level.
				idle := n.MemIdlePower()
				p.memW = append(p.memW, idle+(n.MemActivePower()-idle)*st.MemActivity)
			}
		}
		switch st.Kind {
		case method.StepGPU:
			if st.Kernel < 0 || int(st.Kernel) >= len(sched.Kernels) {
				return nil, fmt.Errorf("solver: GPU step %d runs descriptor %d of a %d-entry table", si, st.Kernel, len(sched.Kernels))
			}
			if solverOf[st.Kernel] == 0 {
				k := sched.Kernels[st.Kernel]
				if dev0 == nil {
					return nil, fmt.Errorf("solver: GPU step %d (%s) on a job with no GPUs", si, k.Class)
				}
				if err := k.Validate(); err != nil {
					return nil, fmt.Errorf("solver: GPU step %d (%s): %w", si, k.Class, err)
				}
				prof, err := dev0.Resolve(k)
				if err != nil {
					return nil, fmt.Errorf("solver: GPU step %d (%s): %w", si, k.Class, err)
				}
				p.kernels = append(p.kernels, gpu.NewCapSolver(dev0.Spec, k, prof))
				solverOf[st.Kernel] = int32(len(p.kernels))
			}
			ps.idx = solverOf[st.Kernel] - 1
		case method.StepCPU:
			ps.idx = int32(len(p.cpuW) / nn)
			maxDur := 0.0
			for _, n := range job.Nodes {
				ex := n.CPU.Run(st.CPU)
				if ex.Duration > maxDur {
					maxDur = ex.Duration
				}
				p.cpuW = append(p.cpuW, ex.Power)
			}
			ps.preDur = maxDur
		case method.StepComm:
			topo := job.Decomp.Topology
			if st.Comm.Scope == method.ScopeGroup {
				topo = job.Decomp.GroupTopology
			}
			d, err := commDuration(job.Fabric, st.Comm, topo)
			if err != nil {
				return nil, err
			}
			ps.preDur = d
		case method.StepHost:
			ps.preDur = st.HostSeconds
		default:
			return nil, fmt.Errorf("solver: unknown step kind %v", st.Kind)
		}
		p.steps[si] = ps
	}
	// Every step appends at most one segment per trace; the CPU trace
	// changes power only around CPU steps.
	for _, n := range job.Nodes {
		n.GrowTraces(1+2*cpuSteps, len(steps))
	}
	return p, nil
}

// commDuration prices one collective on the fabric.
func commDuration(f interconnect.Fabric, c method.Comm, topo interconnect.Topology) (float64, error) {
	switch c.Op {
	case method.CommAllReduce:
		return f.AllReduce(c.Bytes, topo), nil
	case method.CommAllToAll:
		return f.AllToAll(c.Bytes/float64(topo.Ranks()), topo), nil
	case method.CommBroadcast:
		return f.Broadcast(c.Bytes, topo), nil
	}
	return 0, fmt.Errorf("solver: unknown comm op %v", c.Op)
}

// SetGPULimits applies one board power cap (w <= 0 restores the
// default TDP limit) and one maximum SM clock (mhz <= 0 unlocks — the
// DVFS axis) to every GPU of the job's nodes, and invalidates the
// execution table. Errors mirror the per-device range checks.
func (p *Prepared) SetGPULimits(w, mhz float64) error {
	p.execsValid = false
	for _, n := range p.nodes {
		if err := n.SetGPULimits(w, mhz); err != nil {
			return err
		}
	}
	return nil
}

// buildExecs runs the cap solver for every distinct descriptor on
// every device under the devices' current cap/clock state — the only
// cap-dependent computation of a run besides jitter and recording.
func (p *Prepared) buildExecs() {
	nd := len(p.devs)
	if p.execs == nil {
		p.execs = make([]devExec, len(p.kernels)*nd)
	}
	for ki := range p.kernels {
		s := &p.kernels[ki]
		row := p.execs[ki*nd : (ki+1)*nd]
		for d, dev := range p.devs {
			ex := s.Solve(dev)
			row[d] = devExec{ex.Duration, ex.Power, ex.MemPower}
		}
	}
	p.execsValid = true
}

// RunNoEnergy executes the prepared job once, appending to each node's
// traces (callers reset traces between repeats), drawing jitter from
// noise (nil runs noise-free), and returns the summary with EnergyJ
// left at 0 — callers settle it with NodeEnergy (the sweep engine once
// per point, for the surviving repeat). The jitter draw order is one
// whole-run factor, then one per-step factor in step order.
func (p *Prepared) RunNoEnergy(noise *rng.Stream) Result {
	if !p.execsValid {
		p.buildExecs()
	}
	runScale := 1.0
	if noise != nil {
		runScale = noise.LogNormal(0, runJitterSigma)
	}
	nodes := p.nodes
	nn := len(nodes)
	nd := len(p.devs)
	start := nodes[0].TraceDuration()
	for si := range p.steps {
		st := &p.steps[si]
		j := 1.0
		if noise != nil {
			j = runScale * noise.LogNormal(0, stepJitterSigma)
		}
		memW := p.memW[int(st.level)*nn : int(st.level+1)*nn]
		var dur float64
		switch st.kind {
		case method.StepGPU:
			// Every GPU runs the same kernel; durations differ only
			// through cap solving against device-specific power curves.
			// The step ends at the slowest device (implicit barrier).
			execs := p.execs[int(st.idx)*nd : int(st.idx+1)*nd]
			for d := range execs {
				if execs[d].dur > dur {
					dur = execs[d].dur
				}
			}
			dur *= j
			for ni, n := range nodes {
				cp := &p.gpuCP[ni]
				cp.CPU = p.hostOrchW[ni]
				cp.Mem = memW[ni]
				row := execs[p.devOff[ni]:p.devOff[ni+1]]
				idle := p.gpuIdle[ni]
				hbm := p.hbmIdle[ni]
				for i := range row {
					// Devices that finish early wait at the barrier near
					// idle; fold that into a duty-cycled average power.
					// The HBM domain duty-cycles the same way
					// (self-refresh while waiting).
					busy := row[i].dur / dur
					if busy > 1 {
						busy = 1
					}
					cp.GPUs[i] = row[i].power*busy + idle[i]*(1-busy)
					cp.GPUMems[i] = row[i].memW*busy + hbm[i]*(1-busy)
				}
				n.Record(dur, *cp)
			}
		case method.StepCPU:
			dur = st.preDur * j
			cpuW := p.cpuW[int(st.idx)*nn : int(st.idx+1)*nn]
			for ni, n := range nodes {
				n.Record(dur, node.ComponentPowers{CPU: cpuW[ni], Mem: memW[ni], GPUs: p.gpuIdle[ni]})
			}
		case method.StepComm:
			dur = st.preDur * j
			for ni, n := range nodes {
				n.Record(dur, node.ComponentPowers{CPU: p.hostOrchW[ni], Mem: memW[ni], GPUs: p.commGPUs[ni]})
			}
		default: // method.StepHost
			dur = st.preDur * j
			for ni, n := range nodes {
				n.Record(dur, node.ComponentPowers{CPU: p.hostOrchW[ni], Mem: memW[ni], GPUs: p.gpuIdle[ni]})
			}
		}
	}
	return Result{Runtime: nodes[0].TraceDuration() - start, Steps: len(p.steps)}
}
