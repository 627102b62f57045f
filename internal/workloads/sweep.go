package workloads

import (
	"fmt"
	"sync/atomic"

	"vasppower/internal/cluster"
	"vasppower/internal/dft/method"
	"vasppower/internal/dft/solver"
	"vasppower/internal/hw/node"
	"vasppower/internal/rng"
	"vasppower/internal/telemetry"
)

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
// preparation plus O(P) solves. Run and RunMILC are one-point sweeps.
//
// Every point is bit-identical to the serial repeat protocol on fresh
// nodes under that point's cap or clock limit: each repeat replays a
// value snapshot of its labeled noise stream, and the single node
// allocation is identical to any other allocation of the spec (same
// platform + seed). The differential tests pin both against the
// step-by-step oracle.
//
// A Sweep is not safe for concurrent use. The RunOutput of a Run*
// call — its nodes' traces (TotalTrace included: the next point
// records into the same storage), runtimes slice and phase windows —
// is valid only until the next Run* or Close call.
type Sweep struct {
	pool  *cluster.Cluster
	nodes []*node.Node
	prep  *solver.Prepared
	// prelude holds the DGEMM and STREAM burn-in phases, replayed with
	// the idle window ahead of VASP in every repeat (nil without the
	// prelude protocol).
	prelude []*solver.Prepared

	// noises holds each repeat's initial noise-stream state by value; a
	// scratch copy per run gives every point the exact draws an
	// independent run would see.
	noises  []rng.Stream
	scratch rng.Stream

	banks    []node.TraceBank // best repeat's traces during the loop
	runtimes []float64
	bestRes  solver.Result
	windows  map[string][2]float64
	sink     *telemetry.Sampler
	arena    *Arena // nil: the sweep owns its storage
	closed   bool
}

// NewSweep performs the cap-independent resolution phase for spec.
// The spec must not request the prelude protocol or carry its own
// cap/clock limits (those are per-point: RunCap, RunClockMHz).
func NewSweep(spec RunSpec) (*Sweep, error) { return NewSweepIn(nil, spec) }

// NewSweepIn is NewSweep building the schedule and recording the
// traces in a's storage, which Close hands back to a; results are
// bit-identical to NewSweep's. a must serve no other sweep until this
// one is closed. A nil a is NewSweep.
func NewSweepIn(a *Arena, spec RunSpec) (*Sweep, error) {
	if spec.Prelude {
		return nil, fmt.Errorf("workloads: sweep engine does not support the prelude protocol")
	}
	if spec.GPUPowerLimit != 0 || spec.GPUClockLimitMHz != 0 {
		return nil, fmt.Errorf("workloads: sweep specs carry no cap/clock limits (set them per point)")
	}
	pr, err := resolve(spec, a)
	return openSweep(a, pr, err, spec.Sink)
}

// openSweep builds the sweep of pr, resolved into a with the error
// err; a failed resolution hands a's storage back.
func openSweep(a *Arena, pr protocol, err error, sink *telemetry.Sampler) (*Sweep, error) {
	if err != nil {
		a.reclaim(nil)
		return nil, err
	}
	s, err := newSweep(a, &pr, sink)
	if err != nil {
		return nil, err
	}
	activeSweeps.Add(1)
	return s, nil
}

// newSweep allocates pr's nodes, lends them a's trace storage, and
// prepares the schedule and, when pr asks for it, the prelude. On an
// error it hands everything back.
func newSweep(a *Arena, pr *protocol, sink *telemetry.Sampler) (*Sweep, error) {
	// One allocation serves every repeat and point: any allocation
	// from an identically-seeded pool is the same hardware.
	pool, nodes, err := pr.allocate()
	if err != nil {
		a.reclaim(nil)
		return nil, err
	}
	a.lend(nodes)
	s := &Sweep{
		pool:     pool,
		nodes:    nodes,
		noises:   pr.noises,
		banks:    make([]node.TraceBank, len(nodes)),
		runtimes: make([]float64, len(pr.noises)),
		windows:  make(map[string][2]float64, 4),
		sink:     sink,
		arena:    a,
	}
	job := pr.job(nodes)
	if s.prep, err = solver.Prepare(job); err != nil {
		s.release()
		return nil, err
	}
	if pr.prelude {
		// The burn-in phases are one-step schedules on the same nodes.
		for _, sched := range []*method.Schedule{
			DGEMMSchedule(pr.platform.GPU, dgemmSeconds),
			StreamSchedule(pr.platform.GPU, streamSeconds),
		} {
			job.Schedule = sched
			p, err := solver.Prepare(job)
			if err != nil {
				s.release()
				return nil, err
			}
			s.prelude = append(s.prelude, p)
		}
	}
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
// snapshot through the prelude (if any) and the schedule, keep the
// best (minimum-runtime, lowest index on ties) repeat's traces via
// O(1) bank swaps.
func (s *Sweep) run(capW, mhz float64) (RunOutput, error) {
	if s.closed {
		return RunOutput{}, fmt.Errorf("workloads: sweep is closed")
	}
	for _, p := range s.prelude {
		if err := p.SetGPULimits(capW, mhz); err != nil {
			return RunOutput{}, err
		}
	}
	if err := s.prep.SetGPULimits(capW, mhz); err != nil {
		return RunOutput{}, err
	}
	best := 0
	var bestRuntime, bestStart, bestEnd float64
	var pre, bestPre [3][2]float64 // prelude windows: dgemm, stream, idle
	for r := range s.noises {
		for _, n := range s.nodes {
			n.ResetTracesReuse()
		}
		s.scratch = s.noises[r]
		if s.prelude != nil {
			pre = s.runPrelude()
		}
		start := s.nodes[0].TraceDuration()
		// Energy is deferred: only the winning repeat's energy is ever
		// reported, so the node sensor is integrated once per point
		// (below, on the surviving traces) instead of once per repeat.
		res := s.prep.RunNoEnergy(&s.scratch)
		end := s.nodes[0].TraceDuration()
		s.runtimes[r] = res.Runtime
		if r == 0 || res.Runtime < bestRuntime {
			best, bestRuntime = r, res.Runtime
			bestStart, bestEnd, bestPre = start, end, pre
			s.bestRes = res
			s.swapBanks()
		}
	}
	// The banks hold the winner; swap it back so the output nodes carry
	// the best repeat's traces (the scrap storage parks in the banks
	// for the next point), then settle the deferred energy from them.
	s.swapBanks()
	s.bestRes.EnergyJ = solver.NodeEnergy(s.nodes, bestStart)
	clear(s.windows)
	if s.prelude != nil {
		s.windows["dgemm"], s.windows["stream"], s.windows["idle"] = bestPre[0], bestPre[1], bestPre[2]
	}
	s.windows["vasp"] = [2]float64{bestStart, bestEnd}
	// Stream the point's winning traces into the run's telemetry
	// sampler, when it has one. The sampler never blocks — slow
	// subscribers shed load in their own rings — so this cannot slow a
	// run down. PublishRun reads each node's trace whole before it
	// returns, so no cursor outlives the point and the arena is free to
	// reset.
	if s.sink != nil {
		s.sink.PublishRun(s.nodes)
	}
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

// runPrelude records the burn-in ahead of a repeat's schedule —
// DGEMM, STREAM, then the idle window, drawing from the repeat's noise
// as the job script does — and returns the three phases' windows.
func (s *Sweep) runPrelude() (win [3][2]float64) {
	n0 := s.nodes[0]
	for i, p := range s.prelude {
		win[i][0] = n0.TraceDuration()
		p.RunNoEnergy(&s.scratch)
		win[i][1] = n0.TraceDuration()
	}
	win[2][0] = n0.TraceDuration()
	for _, n := range s.nodes {
		n.RecordIdle(idleSeconds)
	}
	win[2][1] = n0.TraceDuration()
	return win
}

func (s *Sweep) swapBanks() {
	for i, n := range s.nodes {
		n.SwapTraces(&s.banks[i])
	}
}

// Close releases the arena: nodes return to the pool with traces,
// power limits, and clock limits reset, and a sweep built by
// NewSweepIn first hands its schedule and trace storage back to its
// Arena. Idempotent. Outputs of earlier Run* calls are invalid
// afterwards.
func (s *Sweep) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, n := range s.nodes {
		n.ResetGPUClockLimits()
	}
	s.release()
	activeSweeps.Add(-1)
}

// release hands the trace storage back to the arena and the nodes back
// to the pool.
func (s *Sweep) release() {
	s.arena.reclaim(s.nodes)
	s.pool.Release(s.nodes)
}
