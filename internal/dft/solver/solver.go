// Package solver executes a method schedule on simulated hardware: it
// walks the step list in virtual time, runs each GPU kernel on every
// allocated GPU (under whatever power limit is currently set), prices
// collectives on the fabric, runs CPU-only phases on the host, and
// records synchronized per-component power traces on every node —
// exactly the data the paper's telemetry pipeline collects.
package solver

import (
	"vasppower/internal/dft/method"
	"vasppower/internal/dft/parallel"
	"vasppower/internal/hw/node"
	"vasppower/internal/interconnect"
	"vasppower/internal/rng"
)

// commGPUPower is the extra per-GPU draw above idle while NCCL moves
// data (copy engines + NIC DMA).
const commGPUPower = 18

// stepJitterSigma is the multiplicative log-normal noise on every
// step duration (OS noise, congestion). Independent per step, it
// averages out over thousands of steps, so a correlated whole-run
// factor (runJitterSigma) models the slower disturbances — thermal
// state, neighbor congestion, straggling components — that make whole
// runs differ by a few percent. The combination is what the paper's
// five-repeat/min-runtime protocol exists to tame (§III-B.1).
const (
	stepJitterSigma = 0.008
	runJitterSigma  = 0.012
)

// Job binds a schedule to hardware.
type Job struct {
	Name     string
	Schedule *method.Schedule
	Nodes    []*node.Node
	Decomp   parallel.Decomposition
	Fabric   interconnect.Fabric
	// Noise drives run-to-run jitter; nil runs noise-free.
	Noise *rng.Stream
}

// Result summarizes one executed job.
type Result struct {
	Runtime        float64            // wall seconds
	EnergyJ        float64            // node-level energy over all nodes
	PhaseDurations map[string]float64 // wall seconds per phase label
	Steps          int
}

// NodeEnergy is the summed node-sensor energy of nodes from start to
// each node's trace end, read from the memoized TotalTrace: the merge
// the profiling pass reads next, so a measurement pays for it once.
func NodeEnergy(nodes []*node.Node, start float64) float64 {
	var e float64
	for _, n := range nodes {
		e += n.TotalTrace().EnergyBetween(start, n.TraceDuration())
	}
	return e
}
