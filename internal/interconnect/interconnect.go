// Package interconnect models the communication fabric of a
// Perlmutter-like system for the purposes of VASP's parallel-scaling
// behavior: NVLink within a node and Slingshot NICs between nodes,
// with NCCL-style collective cost models.
//
// VASP's GPU port communicates through NCCL (§II-C); per SCF iteration
// the dominant collectives are all-reduces of the charge density and
// of subspace matrices. The time these take relative to compute is
// what produces the parallel-efficiency roll-off in Fig. 4 and the
// power droop at low efficiency in Figs. 5 and 8.
package interconnect

import (
	"fmt"
	"math"
)

// Fabric holds the link parameters.
type Fabric struct {
	Name string
	// IntraNodeBW is the per-GPU NVLink bandwidth within a node, B/s.
	IntraNodeBW float64
	// InterNodeBW is the per-GPU network bandwidth (one Cassini NIC
	// per GPU on Perlmutter), B/s.
	InterNodeBW float64
	// IntraLatency and InterLatency are per-hop latencies, seconds.
	IntraLatency float64
	InterLatency float64
	// SoftwareOverhead is the fixed per-collective CPU/NCCL launch
	// cost, seconds.
	SoftwareOverhead float64
}

// Slingshot returns the Perlmutter-like fabric: NVLink3 (~600 GB/s
// aggregate, ~250 GB/s usable per pair) inside the node, one 200 Gb/s
// Slingshot NIC per GPU between nodes.
func Slingshot() Fabric {
	return Fabric{
		Name:             "slingshot-cassini",
		IntraNodeBW:      250e9,
		InterNodeBW:      22e9, // ~200 Gb/s minus protocol overhead
		IntraLatency:     2e-6,
		InterLatency:     2.5e-6,
		SoftwareOverhead: 12e-6,
	}
}

// Topology describes the ranks participating in a collective.
type Topology struct {
	Nodes        int // number of nodes
	RanksPerNode int // GPUs (ranks) per node, 4 on Perlmutter
}

// Ranks returns the total rank count.
func (t Topology) Ranks() int { return t.Nodes * t.RanksPerNode }

func (t Topology) validate() {
	if t.Nodes <= 0 || t.RanksPerNode <= 0 {
		panic(fmt.Sprintf("interconnect: invalid topology %+v", t))
	}
}

// bottleneckBW returns the per-rank bandwidth that governs a ring
// collective over the topology: intra-node when single-node, the NIC
// otherwise.
func (f Fabric) bottleneckBW(t Topology) float64 {
	if t.Nodes == 1 {
		return f.IntraNodeBW
	}
	return f.InterNodeBW
}

// hopLatency returns the per-step latency for a collective spanning
// the topology.
func (f Fabric) hopLatency(t Topology) float64 {
	if t.Nodes == 1 {
		return f.IntraLatency
	}
	return f.InterLatency
}

// AllReduce returns the wall time of an all-reduce of `bytes` bytes
// across the topology, using the standard ring model:
// 2·(P−1)/P · bytes / bw, plus log2(P) latency steps and the software
// overhead.
func (f Fabric) AllReduce(bytes float64, t Topology) float64 {
	t.validate()
	p := float64(t.Ranks())
	if p == 1 || bytes <= 0 {
		if bytes < 0 {
			panic("interconnect: negative bytes")
		}
		return f.SoftwareOverhead
	}
	bw := f.bottleneckBW(t)
	transfer := 2 * (p - 1) / p * bytes / bw
	latency := math.Log2(p) * f.hopLatency(t)
	return f.SoftwareOverhead + transfer + latency
}

// AllToAll returns the wall time of an all-to-all where each rank
// sends `bytesPerRank` to every other rank (the band-redistribution
// pattern). Each rank injects (P−1)·bytesPerRank through its own link.
func (f Fabric) AllToAll(bytesPerRank float64, t Topology) float64 {
	t.validate()
	p := float64(t.Ranks())
	if p == 1 || bytesPerRank <= 0 {
		return f.SoftwareOverhead
	}
	bw := f.bottleneckBW(t)
	return f.SoftwareOverhead + (p-1)*bytesPerRank/bw + (p-1)*f.hopLatency(t)
}

// Broadcast returns the wall time of a binomial-tree broadcast.
func (f Fabric) Broadcast(bytes float64, t Topology) float64 {
	t.validate()
	p := float64(t.Ranks())
	if p == 1 || bytes <= 0 {
		return f.SoftwareOverhead
	}
	bw := f.bottleneckBW(t)
	steps := math.Ceil(math.Log2(p))
	return f.SoftwareOverhead + steps*(f.hopLatency(t)+bytes/bw)
}
