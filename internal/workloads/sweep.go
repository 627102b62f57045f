package workloads

import (
	"errors"
	"fmt"
	"sync/atomic"

	"vasppower/internal/cluster"
	"vasppower/internal/dft/solver"
	"vasppower/internal/hw/node"
	"vasppower/internal/rng"
	"vasppower/internal/telemetry"
)

// ErrSweepUnavailable is NewSweep's error while a telemetry sink is
// active: the sink streams from trace cursors asynchronously, which
// arena reuse would corrupt, so callers measure each point with Run
// instead.
var ErrSweepUnavailable = errors.New("workloads: sweep engine unavailable while a telemetry sink is active")

// activeSweeps counts live sweep arenas; tests assert it returns to
// zero after cancelled sweeps (the arena-release contract).
var activeSweeps atomic.Int64

// ActiveSweeps returns how many sweep arenas are currently live
// (created by NewSweep and not yet closed).
func ActiveSweeps() int64 { return activeSweeps.Load() }

// Sweep measures one RunSpec at many cap or clock points: the
// cap-independent part of a run — schedule construction, entropy
// stamping, node allocation, per-repeat noise stream derivation, and
// the solver's Prepare — done once, with only the cap-dependent solve
// (cap solver + trace recording) re-run per point. Node power traces
// are rebuilt in a reusable arena: reset between repeats and points
// instead of reallocated, so a P-point sweep costs O(schedule)
// preparation plus O(P) solves.
//
// Every point is bit-identical to an independent Run of the same spec
// with that point's cap or clock limit: each repeat draws from a value
// snapshot of the same labeled noise stream, the single node
// allocation is identical to the per-repeat allocations (same platform
// + seed), and both go through the same prepared solver (the
// differential tests pin both against the step-by-step oracle).
//
// A Sweep is not safe for concurrent use. The RunOutput of a Run*
// call — its nodes' traces and the derived traces read from them
// (TotalTrace, whose storage the next point recycles), runtimes
// slice, result map, and phase windows — is valid only until the next
// Run* or Close call.
type Sweep struct {
	repeats int
	pool    *cluster.Cluster
	nodes   []*node.Node
	prep    *solver.Prepared

	// noises holds each repeat's initial noise-stream state by value; a
	// scratch copy per run gives every point the exact draws an
	// independent run would see.
	noises  []rng.Stream
	scratch rng.Stream

	banks     []node.TraceBank // best repeat's traces during the loop
	runtimes  []float64
	bestRes   solver.Result
	bestPhase map[string]float64
	windows   map[string][2]float64
	closed    bool
}

// NewSweep performs the cap-independent resolution phase for spec.
// The spec must not request the prelude protocol or carry its own
// cap/clock limits (those are per-point: RunCap, RunClockMHz), and
// it returns ErrSweepUnavailable while a telemetry sink is active.
func NewSweep(spec RunSpec) (*Sweep, error) {
	if telemetry.ActiveSink() != nil {
		return nil, ErrSweepUnavailable
	}
	if spec.Prelude {
		return nil, fmt.Errorf("workloads: sweep engine does not support the prelude protocol")
	}
	if spec.GPUPowerLimit != 0 || spec.GPUClockLimitMHz != 0 {
		return nil, fmt.Errorf("workloads: sweep specs carry no cap/clock limits (set them per point)")
	}
	pr, err := resolve(spec)
	if err != nil {
		return nil, err
	}
	// Snapshot every repeat's noise stream by value: a scratch copy per
	// run gives every point the exact draws an independent Run's repeat
	// would see.
	noises := make([]rng.Stream, len(pr.noises))
	for r, n := range pr.noises {
		noises[r] = *n
	}
	// One allocation serves every repeat and point: each Run repeat
	// allocates from an identically-seeded pool, so the hardware is the
	// same by construction.
	pool, nodes, err := pr.allocate()
	if err != nil {
		return nil, err
	}
	prep, err := solver.Prepare(pr.job(nodes))
	if err != nil {
		pool.Release(nodes)
		return nil, err
	}
	s := &Sweep{
		repeats:   len(noises),
		pool:      pool,
		nodes:     nodes,
		prep:      prep,
		noises:    noises,
		banks:     make([]node.TraceBank, len(nodes)),
		runtimes:  make([]float64, len(noises)),
		bestPhase: make(map[string]float64, 8),
		windows:   make(map[string][2]float64, 1),
	}
	activeSweeps.Add(1)
	return s, nil
}

// RunCap measures one cap point: every GPU capped at capW watts
// (capW <= 0 = the default TDP limit), clocks unlocked. Equivalent to
// Run with GPUPowerLimit: capW.
func (s *Sweep) RunCap(capW float64) (RunOutput, error) { return s.run(capW, 0) }

// RunClockMHz measures one DVFS point: every GPU's SM clock locked to
// mhz (mhz <= 0 = unlocked), power limit at the default. Equivalent to
// Run with GPUClockLimitMHz: mhz.
func (s *Sweep) RunClockMHz(mhz float64) (RunOutput, error) { return s.run(0, mhz) }

// run executes the repeat protocol against the frozen context under
// the given limits: reset the arena, replay each repeat's noise
// snapshot, keep the best (minimum-runtime, lowest index on ties)
// repeat's traces via O(1) bank swaps.
func (s *Sweep) run(capW, mhz float64) (RunOutput, error) {
	if s.closed {
		return RunOutput{}, fmt.Errorf("workloads: sweep is closed")
	}
	if err := s.prep.SetGPULimits(capW, mhz); err != nil {
		return RunOutput{}, err
	}
	best := 0
	var bestRuntime, bestStart, bestEnd float64
	for r := 0; r < s.repeats; r++ {
		for _, n := range s.nodes {
			n.ResetTracesReuse()
		}
		s.scratch = s.noises[r]
		start := s.nodes[0].TraceDuration()
		// Energy is deferred: only the winning repeat's energy is ever
		// reported, so the trace merge runs once per point (below, on
		// the surviving traces) instead of once per repeat.
		res := s.prep.RunNoEnergy(&s.scratch)
		end := s.nodes[0].TraceDuration()
		s.runtimes[r] = res.Runtime
		if r == 0 || res.Runtime < bestRuntime {
			best, bestRuntime = r, res.Runtime
			bestStart, bestEnd = start, end
			// The prepared solver reuses its PhaseDurations map; copy
			// into the sweep-owned map that outlives the loop.
			clear(s.bestPhase)
			for k, v := range res.PhaseDurations {
				s.bestPhase[k] = v
			}
			s.bestRes = res
			s.bestRes.PhaseDurations = s.bestPhase
			s.swapBanks()
		}
	}
	// The banks hold the winner; swap it back so the output nodes carry
	// the best repeat's traces (the scrap storage parks in the banks
	// for the next point), then settle the deferred energy from them.
	s.swapBanks()
	s.bestRes.EnergyJ = solver.NodeEnergy(s.nodes, bestStart)
	clear(s.windows)
	s.windows["vasp"] = [2]float64{bestStart, bestEnd}
	return RunOutput{
		Nodes:        s.nodes,
		Runtimes:     s.runtimes,
		Best:         best,
		BestResult:   s.bestRes,
		VASPStart:    bestStart,
		VASPEnd:      bestEnd,
		PhaseWindows: s.windows,
	}, nil
}

func (s *Sweep) swapBanks() {
	for i, n := range s.nodes {
		n.SwapTraces(&s.banks[i])
	}
}

// Close releases the arena: nodes return to the pool with traces,
// power limits, and clock limits reset. Idempotent. Outputs of earlier
// Run* calls are invalid afterwards.
func (s *Sweep) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, n := range s.nodes {
		n.ResetGPUClockLimits()
	}
	s.pool.Release(s.nodes)
	activeSweeps.Add(-1)
}
