// Package solveroracle is the step-by-step executor: the measurement
// engine's first version, kept as the oracle the prepared engine is
// pinned against. It walks the schedule one step at a time, solving
// every GPU kernel on every device from scratch (validate, resolve,
// cap-solve — nothing shared across steps or devices), allocating each
// step's powers, and drawing jitter as it goes.
//
// Only tests import it — the solver's, the workloads repeat
// protocol's and core's differential tests — so no binary links it.
package solveroracle

import (
	"fmt"

	"vasppower/internal/dft/method"
	"vasppower/internal/dft/solver"
	"vasppower/internal/hw/gpu"
	"vasppower/internal/hw/node"
	"vasppower/internal/interconnect"
	"vasppower/internal/rng"
)

// The engine's constants, restated so a change to them shows up as an
// oracle mismatch rather than silently moving both sides.
const (
	commGPUPower    = 18
	stepJitterSigma = 0.008
	runJitterSigma  = 0.012
)

// runJob is a job plus the step executor's run state.
type runJob struct {
	solver.Job
	runScale float64
}

// Run executes the job step by step, appending to each node's
// traces, and returns the summary; its Runtime is the sum of the step
// durations from 0, in step order.
func Run(j solver.Job) (solver.Result, error) {
	if j.Schedule == nil || len(j.Schedule.Steps) == 0 {
		return solver.Result{}, fmt.Errorf("solver: empty schedule")
	}
	if len(j.Nodes) == 0 {
		return solver.Result{}, fmt.Errorf("solver: no nodes")
	}
	if j.Decomp.Nodes != len(j.Nodes) {
		return solver.Result{}, fmt.Errorf("solver: decomposition spans %d nodes but %d allocated",
			j.Decomp.Nodes, len(j.Nodes))
	}
	job := runJob{Job: j, runScale: 1}
	if job.Noise != nil {
		job.runScale = job.Noise.LogNormal(0, runJitterSigma)
	}
	var res solver.Result
	start := job.Nodes[0].TraceDuration()
	for _, st := range job.Schedule.Steps {
		var dur float64
		switch st.Kind {
		case method.StepGPU:
			dur = gpuStep(job, st)
		case method.StepCPU:
			dur = cpuStep(job, st)
		case method.StepComm:
			dur = commStep(job, st)
		case method.StepHost:
			dur = hostStep(job, st)
		default:
			panic(fmt.Sprintf("solver: unknown step kind %v", st.Kind))
		}
		res.Runtime += dur
		res.Steps++
	}
	for _, n := range job.Nodes {
		res.EnergyJ += n.TotalTrace().EnergyBetween(start, n.TraceDuration())
	}
	return res, nil
}

// jitter returns the multiplicative noise factor for one step:
// the run-correlated factor times independent per-step noise.
func jitter(job runJob) float64 {
	if job.Noise == nil {
		return 1
	}
	return job.runScale * job.Noise.LogNormal(0, stepJitterSigma)
}

// kernel runs one kernel on one device the way the first engine
// did: validate, resolve through the device's table, cap-solve. The
// solve itself is pinned to the unhoisted device model in
// internal/hw/gpu's tests.
func kernel(g *gpu.GPU, k gpu.Kernel) gpu.Execution {
	if err := k.Validate(); err != nil {
		panic(err)
	}
	p, err := g.Resolve(k)
	if err != nil {
		panic(err)
	}
	s := gpu.NewCapSolver(g.Spec, k, p)
	return s.Solve(g)
}

func gpuStep(job runJob, st method.Step) float64 {
	k := job.Schedule.Kernels[st.Kernel]
	// Every GPU runs the same kernel; the step ends at the slowest
	// device (implicit barrier).
	var execs [][]gpu.Execution
	maxDur := 0.0
	for _, n := range job.Nodes {
		row := make([]gpu.Execution, n.NumGPUs())
		for i, g := range n.GPUs {
			row[i] = kernel(g, k)
			if row[i].Duration > maxDur {
				maxDur = row[i].Duration
			}
		}
		execs = append(execs, row)
	}
	maxDur *= jitter(job)
	for ni, n := range job.Nodes {
		cp := node.ComponentPowers{
			CPU:     n.CPU.HostOrchestrationPower(),
			Mem:     memPower(n, st.MemActivity),
			GPUs:    make([]float64, n.NumGPUs()),
			GPUMems: make([]float64, n.NumGPUs()),
		}
		for i := range n.GPUs {
			// Devices that finish early wait at the barrier near idle,
			// board and HBM domain alike.
			e := execs[ni][i]
			busy := e.Duration / maxDur
			if busy > 1 {
				busy = 1
			}
			cp.GPUs[i] = e.Power*busy + n.GPUs[i].IdlePower()*(1-busy)
			cp.GPUMems[i] = e.MemPower*busy + n.GPUs[i].HBMIdlePower()*(1-busy)
		}
		n.Record(maxDur, cp)
	}
	return maxDur
}

func cpuStep(job runJob, st method.Step) float64 {
	maxDur := 0.0
	var powers []float64
	for _, n := range job.Nodes {
		ex := n.CPU.Run(st.CPU)
		powers = append(powers, ex.Power)
		if ex.Duration > maxDur {
			maxDur = ex.Duration
		}
	}
	maxDur *= jitter(job)
	for ni, n := range job.Nodes {
		cp := n.Idle()
		cp.CPU = powers[ni]
		cp.Mem = memPower(n, st.MemActivity)
		n.Record(maxDur, cp)
	}
	return maxDur
}

func commStep(job runJob, st method.Step) float64 {
	var topo interconnect.Topology
	switch st.Comm.Scope {
	case method.ScopeGroup:
		topo = job.Decomp.GroupTopology
	default:
		topo = job.Decomp.Topology
	}
	var dur float64
	switch st.Comm.Op {
	case method.CommAllReduce:
		dur = job.Fabric.AllReduce(st.Comm.Bytes, topo)
	case method.CommAllToAll:
		dur = job.Fabric.AllToAll(st.Comm.Bytes/float64(topo.Ranks()), topo)
	case method.CommBroadcast:
		dur = job.Fabric.Broadcast(st.Comm.Bytes, topo)
	default:
		panic(fmt.Sprintf("solver: unknown comm op %v", st.Comm.Op))
	}
	dur *= jitter(job)
	for _, n := range job.Nodes {
		cp := n.Idle()
		cp.CPU = n.CPU.HostOrchestrationPower()
		cp.Mem = memPower(n, st.MemActivity)
		for i := range cp.GPUs {
			cp.GPUs[i] += commGPUPower
		}
		n.Record(dur, cp)
	}
	return dur
}

func hostStep(job runJob, st method.Step) float64 {
	dur := st.HostSeconds * jitter(job)
	for _, n := range job.Nodes {
		cp := n.Idle()
		cp.CPU = n.CPU.HostOrchestrationPower()
		cp.Mem = memPower(n, st.MemActivity)
		n.Record(dur, cp)
	}
	return dur
}

// memPower interpolates DDR power between idle and active with
// the step's memory-activity level.
func memPower(n *node.Node, activity float64) float64 {
	return n.MemIdlePower() + (n.MemActivePower()-n.MemIdlePower())*activity
}

// Noise mirrors the repeat protocol's noise derivation: repeat 0
// keeps the historical "noise" label, later repeats get their own.
func Noise(root *rng.Stream, r int) *rng.Stream {
	if r == 0 {
		return root.Split("noise")
	}
	return root.Split(fmt.Sprintf("noise/repeat%d", r))
}
