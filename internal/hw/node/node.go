// Package node models one GPU compute node of a platform: a host CPU,
// a platform-determined number of GPUs, DDR memory, and peripherals
// (NICs, fans, VRM losses). The node records synchronized
// per-component power traces as the workload executes, mirroring the
// Cray Power Monitoring counters the paper reads (CPU, each GPU,
// memory, and total node power including peripherals, §II-B).
//
// Which hardware populates the node comes entirely from the
// hw/platform layer; this package hard-codes no machine. On the
// default perlmutter-a100 platform the model reproduces the published
// reference points:
//   - node TDP 2350 W = 280 (CPU) + 4×400 (GPUs) + 470 (peripherals,
//     primarily DDR and NICs);
//   - idle node power 410–510 W across nodes (manufacturing
//     variability, §III-B.2);
//   - the node sensor reads higher than the sum of component sensors
//     (peripherals are not individually metered, Fig. 3).
package node

import (
	"fmt"

	"vasppower/internal/hw/cpu"
	"vasppower/internal/hw/gpu"
	"vasppower/internal/hw/platform"
	"vasppower/internal/rng"
	"vasppower/internal/timeseries"
)

// Node is one node instance. It owns its components and the aligned
// power traces produced during simulation.
type Node struct {
	Name     string
	Platform platform.Platform
	CPU      *cpu.CPU
	GPUs     []*gpu.GPU

	peripheralWatts float64 // with per-node variability
	memScale        float64

	cpuTrace  timeseries.Trace
	memTrace  timeseries.Trace
	gpuTraces []timeseries.Trace
	// totalTrace (the node sensor), gpuSumTrace (the GPU board sum, the
	// NVML module scope) and the NVML gpu and memory scopes are recorded
	// with the components, on the same instants.
	totalTrace  timeseries.Trace
	gpuSumTrace timeseries.Trace
	gpuScope    timeseries.Trace
	hbmScope    timeseries.Trace
}

// New builds a node of the given platform. r seeds per-node
// manufacturing variability; nil gives a nominal node. Component
// variability is derived from labeled substreams so node identity
// fully determines device behavior.
func New(name string, p platform.Platform, r *rng.Stream) *Node {
	p = platform.OrDefault(p)
	if err := p.Validate(); err != nil {
		panic(err)
	}
	n := &Node{
		Name:            name,
		Platform:        p,
		GPUs:            make([]*gpu.GPU, p.GPUsPerNode),
		peripheralWatts: p.Node.PeripheralWatts,
		memScale:        1,
		gpuTraces:       make([]timeseries.Trace, p.GPUsPerNode),
	}
	v := p.Variability
	var cpuR, memR *rng.Stream
	gpuR := make([]*rng.Stream, p.GPUsPerNode)
	if r != nil {
		cpuR = r.Split("cpu")
		memR = r.Split("mem")
		for i := range gpuR {
			gpuR[i] = r.Split(fmt.Sprintf("gpu%d", i))
		}
		// Peripheral draw varies the most between nodes (fan curves,
		// VRM efficiency): ±25% spread drives the paper's 410–510 W
		// idle range together with component spreads.
		pr := r.Split("peripherals")
		n.peripheralWatts = clamp(pr.Normal(p.Node.PeripheralWatts, v.PeripheralSigmaW),
			p.Node.PeripheralWatts*0.75, p.Node.PeripheralWatts*1.25)
		n.memScale = clamp(memR.Normal(1, v.MemSigma), 0.85, 1.15)
	}
	n.CPU = cpu.New(p.CPU, cpuR, v.CPU)
	for i := range n.GPUs {
		n.GPUs[i] = gpu.New(p.GPU, p.Efficiency, i, gpuR[i], v.GPU)
	}
	return n
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// NumGPUs returns how many GPUs the node carries.
func (n *Node) NumGPUs() int { return len(n.GPUs) }

// MemIdlePower returns the DDR background power with variability.
func (n *Node) MemIdlePower() float64 { return n.Platform.Node.MemIdleWatts * n.memScale }

// MemActivePower returns the DDR power under load with variability.
func (n *Node) MemActivePower() float64 { return n.Platform.Node.MemActiveWatts * n.memScale }

// PeripheralPower returns this node's (constant) peripheral draw.
func (n *Node) PeripheralPower() float64 { return n.peripheralWatts }

// IdlePower returns the node's total idle draw, summed in the node
// sensor's order (components, then peripherals), so an idle node
// sensor reads exactly this value.
func (n *Node) IdlePower() float64 {
	p := n.CPU.IdlePower() + n.MemIdlePower()
	for _, g := range n.GPUs {
		p += g.IdlePower()
	}
	return p + n.peripheralWatts
}

// ComponentPowers is a snapshot of per-component power for one
// recorded segment. GPUs has one entry per device on the node.
//
// GPUMems optionally carries each GPU's HBM-domain share of the
// corresponding GPUs entry (the NVML memory scope — distinct from Mem,
// which is the node's DDR). Nil means "not decomposed": Record falls
// back to each device's HBM idle share, which is correct for every
// segment where the GPUs are not streaming (idle, CPU phases, comm
// waits).
type ComponentPowers struct {
	CPU     float64
	Mem     float64
	GPUs    []float64
	GPUMems []float64
}

// Idle returns the node's idle component powers.
func (n *Node) Idle() ComponentPowers {
	cp := ComponentPowers{
		CPU:  n.CPU.IdlePower(),
		Mem:  n.MemIdlePower(),
		GPUs: make([]float64, len(n.GPUs)),
	}
	for i, g := range n.GPUs {
		cp.GPUs[i] = g.IdlePower()
	}
	return cp
}

// Record appends one synchronized segment of the given duration to all
// component traces and to every power scope. The workload engines call
// this as virtual time advances. The segment's end is computed once, on
// the node's clock, and appended to every trace, so every trace holds
// each instant as the same float.
//
// The node sensor reads ((CPU + DDR) + GPU0 + …) + peripherals and
// the board sum GPU0 + GPU1 + …, added in that order. With HBM_i the
// device's GPUMems entry (its HBM idle power when GPUMems is nil), the
// memory scope reads HBM0 + HBM1 + … and the gpu scope the sum of
// max(0, GPUi·(1−gpu.ModuleVRFrac) − HBMi): clamping per device keeps
// one device's HBM share from eating into another's core power.
func (n *Node) Record(dur float64, p ComponentPowers) {
	if dur < 0 {
		panic("node: negative record duration")
	}
	if len(p.GPUs) != len(n.gpuTraces) {
		panic(fmt.Sprintf("node: recording %d GPU powers on a %d-GPU node",
			len(p.GPUs), len(n.gpuTraces)))
	}
	if p.GPUMems != nil && len(p.GPUMems) != len(n.gpuTraces) {
		panic(fmt.Sprintf("node: recording %d GPU memory powers on a %d-GPU node",
			len(p.GPUMems), len(n.gpuTraces)))
	}
	if dur == 0 {
		return
	}
	end := n.TraceDuration() + dur
	n.cpuTrace.Append(end, p.CPU)
	n.memTrace.Append(end, p.Mem)
	total, gpuSum, core, hbm := p.CPU+p.Mem, 0.0, 0.0, 0.0
	for i := range n.gpuTraces {
		w := p.GPUs[i]
		n.gpuTraces[i].Append(end, w)
		total += w
		gpuSum += w
		memW := n.GPUs[i].HBMIdlePower()
		if p.GPUMems != nil {
			memW = p.GPUMems[i]
		}
		hbm += memW
		// The conversion rounds the product before the subtraction, so
		// no platform fuses the two into one multiply-add.
		core += max(0, float64(w*(1-gpu.ModuleVRFrac))-memW)
	}
	n.totalTrace.Append(end, total+n.peripheralWatts)
	n.gpuSumTrace.Append(end, gpuSum)
	n.gpuScope.Append(end, core)
	n.hbmScope.Append(end, hbm)
}

// GrowTraces makes room for cpu more segments on the CPU trace and
// rest more on every other component trace, so a run that knows its
// step count allocates trace storage once instead of growing it a
// quarter at a time. (The CPU trace gets its own count because host
// orchestration holds it at one power through most steps.)
func (n *Node) GrowTraces(cpu, rest int) {
	n.cpuTrace.Grow(cpu)
	n.memTrace.Grow(rest)
	n.totalTrace.Grow(rest)
	n.gpuSumTrace.Grow(rest)
	n.gpuScope.Grow(rest)
	n.hbmScope.Grow(rest)
	for i := range n.gpuTraces {
		n.gpuTraces[i].Grow(rest)
	}
}

// RecordIdle appends an idle segment of the given duration.
func (n *Node) RecordIdle(dur float64) { n.Record(dur, n.Idle()) }

// CPUTrace returns the CPU power trace.
func (n *Node) CPUTrace() *timeseries.Trace { return &n.cpuTrace }

// MemTrace returns the memory power trace.
func (n *Node) MemTrace() *timeseries.Trace { return &n.memTrace }

// GPUTrace returns GPU i's power trace.
func (n *Node) GPUTrace(i int) *timeseries.Trace { return &n.gpuTraces[i] }

// GPUSumTrace returns the GPU board sum: the pointwise sum of all GPU
// traces, recorded with them. Callers must not mutate it.
func (n *Node) GPUSumTrace() *timeseries.Trace { return &n.gpuSumTrace }

// TotalTrace returns the node power trace: all components plus the
// constant peripheral draw, recorded with them. This is what the
// node-level sensor reads. Callers must not mutate it.
func (n *Node) TotalTrace() *timeseries.Trace { return &n.totalTrace }

// Domain is an NVML-style power scope over the node's accelerators,
// plus the whole-node scope the Cray PM node sensor reads. The GPU
// scopes aggregate over all devices on the host (the per-device view
// is GPUTrace, the module scope of one device).
type Domain string

const (
	// DomainGPU is NVML_POWER_SCOPE_GPU: the GPU dies alone — SM
	// arrays, caches, controllers — summed over the node's devices.
	DomainGPU Domain = "gpu"
	// DomainMemory is NVML_POWER_SCOPE_MEMORY: the HBM stacks and
	// their controllers, summed over the node's devices. Distinct from
	// the Cray PM "memory" metric, which is the host's DDR.
	DomainMemory Domain = "memory"
	// DomainModule is NVML_POWER_SCOPE_MODULE: the whole SXM modules
	// (die + HBM + voltage-regulator losses) — what the board sensor
	// and the Cray PM per-GPU counters read.
	DomainModule Domain = "module"
	// DomainNode is the node-level sensor: every component plus
	// unmetered peripherals.
	DomainNode Domain = "node"
)

// Domains lists every power domain, in decomposition order.
func Domains() []Domain { return []Domain{DomainGPU, DomainMemory, DomainModule, DomainNode} }

// ValidDomain reports whether d names a power domain.
func ValidDomain(d Domain) bool {
	switch d {
	case DomainGPU, DomainMemory, DomainModule, DomainNode:
		return true
	}
	return false
}

// DomainTrace returns the node's power trace for one domain scope:
// DomainGPU and DomainMemory are the gpu and memory scopes Record sums,
// DomainModule is the board-power sum (GPUSumTrace), DomainNode is the
// node sensor (TotalTrace). Every scope is recorded with the
// components, so the pointer is stable across Record and the trace
// resets; callers must not mutate the trace. By construction gpu +
// memory ≤ module ≤ node pointwise. Unknown domains panic.
func (n *Node) DomainTrace(d Domain) *timeseries.Trace {
	switch d {
	case DomainGPU:
		return &n.gpuScope
	case DomainMemory:
		return &n.hbmScope
	case DomainModule:
		return n.GPUSumTrace()
	case DomainNode:
		return n.TotalTrace()
	}
	panic(fmt.Sprintf("node: unknown power domain %q", d))
}

// TraceDuration returns the recorded duration (identical across
// components by construction).
func (n *Node) TraceDuration() float64 { return n.cpuTrace.Duration() }

// ResetTraces clears all recorded traces (e.g. between benchmark
// repeats) without touching device state such as power limits, and
// releases their storage.
func (n *Node) ResetTraces() {
	n.cpuTrace, n.memTrace = timeseries.Trace{}, timeseries.Trace{}
	n.totalTrace, n.gpuSumTrace = timeseries.Trace{}, timeseries.Trace{}
	n.gpuScope, n.hbmScope = timeseries.Trace{}, timeseries.Trace{}
	clear(n.gpuTraces)
}

// ResetTracesReuse clears all recorded traces like ResetTraces but
// keeps each trace's segment storage — the arena reset the incremental
// sweep engine applies between repeats and cap points so steady-state
// re-solves append into already-sized backing arrays.
func (n *Node) ResetTracesReuse() {
	n.cpuTrace.Reset()
	n.memTrace.Reset()
	n.totalTrace.Reset()
	n.gpuSumTrace.Reset()
	n.gpuScope.Reset()
	n.hbmScope.Reset()
	for i := range n.gpuTraces {
		n.gpuTraces[i].Reset()
	}
}

// TraceBank is detachable trace storage for one node: the sweep engine
// keeps the best repeat's traces in a bank while later repeats rebuild
// into the node's working set, then swaps the winner back in; a
// measurement arena keeps a node's whole storage in one between runs
// (ExchangeStorage). The zero value is ready to use.
type TraceBank struct {
	cpu, mem      timeseries.Trace
	total, gpuSum timeseries.Trace
	gpuScope      timeseries.Trace
	hbmScope      timeseries.Trace
	gpus          []timeseries.Trace
}

// SwapTraces exchanges the node's recorded traces, power scopes
// included, with the bank's. Device state (power and clock limits) is
// untouched. Swapping is O(1): only slice headers move.
func (n *Node) SwapTraces(b *TraceBank) {
	if len(b.gpus) != len(n.gpuTraces) {
		b.gpus = make([]timeseries.Trace, len(n.gpuTraces))
	}
	n.cpuTrace, b.cpu = b.cpu, n.cpuTrace
	n.memTrace, b.mem = b.mem, n.memTrace
	n.totalTrace, b.total = b.total, n.totalTrace
	n.gpuSumTrace, b.gpuSum = b.gpuSum, n.gpuSumTrace
	n.gpuScope, b.gpuScope = b.gpuScope, n.gpuScope
	n.hbmScope, b.hbmScope = b.hbmScope, n.hbmScope
	n.gpuTraces, b.gpus = b.gpus, n.gpuTraces
}

// ExchangeStorage empties the node's traces and trades all of its trace
// storage for the bank's. A measurement arena calls it twice per run:
// on a fresh node before the run, so the run records into storage
// sized by earlier runs, and after the run is profiled, to take the
// storage back.
func (n *Node) ExchangeStorage(b *TraceBank) {
	n.ResetTracesReuse()
	n.SwapTraces(b)
}

// SetGPUPowerLimits applies the same cap to all GPUs, returning the
// first error.
func (n *Node) SetGPUPowerLimits(w float64) error {
	for _, g := range n.GPUs {
		if err := g.SetPowerLimit(w); err != nil {
			return err
		}
	}
	return nil
}

// ResetGPUPowerLimits restores default (TDP) limits on all GPUs.
func (n *Node) ResetGPUPowerLimits() {
	for _, g := range n.GPUs {
		g.ResetPowerLimit()
	}
}

// SetGPUClockLimits locks the same maximum SM clock on all GPUs (the
// DVFS alternative to power capping), returning the first error.
func (n *Node) SetGPUClockLimits(mhz float64) error {
	for _, g := range n.GPUs {
		if err := g.SetClockLimitMHz(mhz); err != nil {
			return err
		}
	}
	return nil
}

// ResetGPUClockLimits unlocks SM clocks on all GPUs.
func (n *Node) ResetGPUClockLimits() {
	for _, g := range n.GPUs {
		g.ResetClockLimit()
	}
}

// SetGPULimits sets both limits on all GPUs: the power cap w (w <= 0
// restores the default TDP limit) and the maximum SM clock mhz
// (mhz <= 0 unlocks), returning the first error.
func (n *Node) SetGPULimits(w, mhz float64) error {
	n.ResetGPUPowerLimits()
	n.ResetGPUClockLimits()
	if w > 0 {
		if err := n.SetGPUPowerLimits(w); err != nil {
			return err
		}
	}
	if mhz > 0 {
		return n.SetGPUClockLimits(mhz)
	}
	return nil
}
