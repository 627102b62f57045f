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

	cpuTrace     timeseries.Trace
	memTrace     timeseries.Trace
	gpuTraces    []timeseries.Trace
	gpuMemTraces []timeseries.Trace // HBM-domain share of each gpuTrace

	// Memoized derived traces. TotalTrace and GPUSumTrace are read
	// once per metric by the telemetry pipeline and again by the
	// analysis layer; recomputing the k-way sum on every sensor read
	// dominated profile assembly. Record and the trace resets
	// invalidate all of them. The cached traces are shared across
	// callers, which must treat them as read-only (the same contract
	// Segments already states).
	totalCache   *timeseries.Trace
	gpuSumCache  *timeseries.Trace
	domainCaches map[Domain]*timeseries.Trace

	// totalSpare is the storage of a TotalTrace the arena resets
	// (ResetTracesReuse, SwapTraces) took back; the next TotalTrace is
	// built into it. sumBuf holds the component sum TotalTrace offsets
	// by the peripheral draw; it is never handed out.
	totalSpare *timeseries.Trace
	sumBuf     timeseries.Trace
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
		gpuMemTraces:    make([]timeseries.Trace, p.GPUsPerNode),
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

// IdlePower returns the node's total idle draw.
func (n *Node) IdlePower() float64 {
	p := n.CPU.IdlePower() + n.MemIdlePower() + n.peripheralWatts
	for _, g := range n.GPUs {
		p += g.IdlePower()
	}
	return p
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
// component traces. The workload drivers call this as virtual time
// advances; all traces stay aligned by construction.
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
	n.totalCache, n.gpuSumCache, n.domainCaches = nil, nil, nil
	n.cpuTrace.Append(dur, p.CPU)
	n.memTrace.Append(dur, p.Mem)
	for i := range n.gpuTraces {
		n.gpuTraces[i].Append(dur, p.GPUs[i])
		memW := n.GPUs[i].HBMIdlePower()
		if p.GPUMems != nil {
			memW = p.GPUMems[i]
		}
		n.gpuMemTraces[i].Append(dur, memW)
	}
}

// GrowTraces makes room for cpu more segments on the CPU trace and
// rest more on every other component trace, so a run that knows its
// step count allocates trace storage once instead of growing it a
// quarter at a time. (The CPU trace gets its own count because host
// orchestration holds it at one power through most steps.)
func (n *Node) GrowTraces(cpu, rest int) {
	n.cpuTrace.Grow(cpu)
	n.memTrace.Grow(rest)
	for i := range n.gpuTraces {
		n.gpuTraces[i].Grow(rest)
		n.gpuMemTraces[i].Grow(rest)
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

// GPUSumTrace returns the pointwise sum of all GPU traces. The result
// is memoized until the next Record or ResetTraces; callers must not
// mutate it.
func (n *Node) GPUSumTrace() *timeseries.Trace {
	if n.gpuSumCache == nil {
		traces := make([]*timeseries.Trace, len(n.gpuTraces))
		for i := range n.gpuTraces {
			traces[i] = &n.gpuTraces[i]
		}
		n.gpuSumCache = timeseries.Sum(traces...)
	}
	return n.gpuSumCache
}

// TotalTrace returns the node power trace: all components plus the
// constant peripheral draw. This is what the node-level sensor reads.
// The result is memoized until the next Record or trace reset; callers
// must not mutate it.
//
// A returned trace stays valid across Record and ResetTraces, which
// only drop the memo: holders such as telemetry cursors keep reading
// it. The arena resets, ResetTracesReuse and SwapTraces, instead
// recycle its storage into the next TotalTrace, so a caller of those
// must not keep a TotalTrace across them (the sweep engine's outputs
// are valid only until its next point).
func (n *Node) TotalTrace() *timeseries.Trace {
	if n.totalCache == nil {
		var buf [8]*timeseries.Trace
		traces := append(buf[:0], &n.cpuTrace, &n.memTrace)
		for i := range n.gpuTraces {
			traces = append(traces, &n.gpuTraces[i])
		}
		sum := timeseries.SumInto(&n.sumBuf, traces...)
		if n.totalSpare != nil {
			n.totalCache = sum.AddConstantInto(n.totalSpare, n.peripheralWatts)
			n.totalSpare = nil
		} else {
			n.totalCache = sum.AddConstant(n.peripheralWatts)
		}
	}
	return n.totalCache
}

// recycleTotal invalidates the memoized derived traces for an arena
// reset, keeping the TotalTrace storage for the next TotalTrace.
func (n *Node) recycleTotal() {
	if n.totalCache != nil {
		n.totalSpare = n.totalCache
	}
	n.totalCache, n.gpuSumCache, n.domainCaches = nil, nil, nil
}

// Domain is an NVML-style power scope over the node's accelerators,
// plus the whole-node scope the Cray PM node sensor reads. The GPU
// scopes aggregate over all devices on the host (the per-device view
// is GPUCoreTrace/GPUMemTrace/GPUTrace).
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

// GPUMemTrace returns GPU i's HBM-domain (NVML memory scope) power
// trace, recorded in lockstep with GPUTrace(i).
func (n *Node) GPUMemTrace(i int) *timeseries.Trace { return &n.gpuMemTraces[i] }

// GPUCoreTrace returns GPU i's core-domain (NVML GPU scope) power
// trace, derived segment-wise from the board and HBM traces:
// board·(1−VR losses) − HBM, floored at zero. Not memoized — callers
// wanting the per-host aggregate should use DomainTrace(DomainGPU),
// which is.
func (n *Node) GPUCoreTrace(i int) *timeseries.Trace {
	return coreTrace(&n.gpuTraces[i], &n.gpuMemTraces[i])
}

// coreTrace derives the core-domain trace from a module (board) trace
// and its memory-domain share. The two traces cover identical time but
// may be segmented differently (equal-power merging is per-trace), so
// they are combined through the k-way Sum.
func coreTrace(module, mem *timeseries.Trace) *timeseries.Trace {
	return timeseries.Sum(module.Scale(1-gpu.ModuleVRFrac), mem.Scale(-1)).
		Map(func(p float64) float64 {
			if p < 0 {
				return 0
			}
			return p
		})
}

// DomainTrace returns the node's power trace for one domain scope:
// DomainGPU and DomainMemory sum the per-device core and HBM traces,
// DomainModule is the board-power sum (GPUSumTrace), DomainNode is the
// node sensor (TotalTrace). Results are memoized until the next Record
// or ResetTraces and must be treated as read-only. By construction
// gpu + memory ≤ module ≤ node pointwise. Unknown domains panic.
func (n *Node) DomainTrace(d Domain) *timeseries.Trace {
	if tr, ok := n.domainCaches[d]; ok {
		return tr
	}
	var tr *timeseries.Trace
	switch d {
	case DomainModule:
		tr = n.GPUSumTrace()
	case DomainNode:
		tr = n.TotalTrace()
	case DomainMemory:
		traces := make([]*timeseries.Trace, len(n.gpuMemTraces))
		for i := range n.gpuMemTraces {
			traces[i] = &n.gpuMemTraces[i]
		}
		tr = timeseries.Sum(traces...)
	case DomainGPU:
		// Σ core_i: distribute the subtraction — Σ board_i·(1−vr) − Σ
		// hbm_i would lose the per-device zero floor, so sum the
		// per-device core traces instead.
		traces := make([]*timeseries.Trace, len(n.gpuTraces))
		for i := range n.gpuTraces {
			traces[i] = coreTrace(&n.gpuTraces[i], &n.gpuMemTraces[i])
		}
		tr = timeseries.Sum(traces...)
	default:
		panic(fmt.Sprintf("node: unknown power domain %q", d))
	}
	if n.domainCaches == nil {
		n.domainCaches = make(map[Domain]*timeseries.Trace, 4)
	}
	n.domainCaches[d] = tr
	return tr
}

// TraceDuration returns the recorded duration (identical across
// components by construction).
func (n *Node) TraceDuration() float64 { return n.cpuTrace.Duration() }

// ResetTraces clears all recorded traces (e.g. between benchmark
// repeats) without touching device state such as power limits, and
// releases their storage. Derived traces handed out earlier stay
// valid.
func (n *Node) ResetTraces() {
	n.totalCache, n.gpuSumCache, n.domainCaches = nil, nil, nil
	n.totalSpare, n.sumBuf = nil, timeseries.Trace{}
	n.cpuTrace = timeseries.Trace{}
	n.memTrace = timeseries.Trace{}
	for i := range n.gpuTraces {
		n.gpuTraces[i] = timeseries.Trace{}
		n.gpuMemTraces[i] = timeseries.Trace{}
	}
}

// ResetTracesReuse clears all recorded traces like ResetTraces but
// keeps each trace's segment storage — the arena reset the incremental
// sweep engine applies between repeats and cap points so steady-state
// re-solves append into already-sized backing arrays. The last
// TotalTrace's storage is kept too and rebuilt by the next TotalTrace,
// so a TotalTrace handed out earlier is invalid afterwards; the other
// derived traces own fresh storage and are unaffected.
func (n *Node) ResetTracesReuse() {
	n.recycleTotal()
	n.cpuTrace.Reset()
	n.memTrace.Reset()
	for i := range n.gpuTraces {
		n.gpuTraces[i].Reset()
		n.gpuMemTraces[i].Reset()
	}
}

// TraceBank is detachable trace storage for one node: the sweep engine
// keeps the best repeat's traces in a bank while later repeats rebuild
// into the node's working set, then swaps the winner back in. The zero
// value is ready to use.
type TraceBank struct {
	cpu     timeseries.Trace
	mem     timeseries.Trace
	gpus    []timeseries.Trace
	gpuMems []timeseries.Trace
}

// SwapTraces exchanges the node's recorded traces with the bank's and
// invalidates the memoized derived traces, recycling the TotalTrace
// storage as ResetTracesReuse does. Device state (power and clock
// limits) is untouched. Swapping is O(1): only slice headers move.
func (n *Node) SwapTraces(b *TraceBank) {
	if len(b.gpus) != len(n.gpuTraces) {
		b.gpus = make([]timeseries.Trace, len(n.gpuTraces))
		b.gpuMems = make([]timeseries.Trace, len(n.gpuMemTraces))
	}
	n.recycleTotal()
	n.cpuTrace, b.cpu = b.cpu, n.cpuTrace
	n.memTrace, b.mem = b.mem, n.memTrace
	n.gpuTraces, b.gpus = b.gpus, n.gpuTraces
	n.gpuMemTraces, b.gpuMems = b.gpuMems, n.gpuMemTraces
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
