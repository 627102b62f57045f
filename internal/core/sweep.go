// Cap sweeps over one measurement spec: a SweepContext freezes
// everything a measurement does that cannot depend on the GPU power
// cap (schedule construction, kernel resolution through the platform
// efficiency table, node allocation, noise-stream derivation), so a
// sweep pays for it once and re-runs only the cap solver and trace
// recording per point. The invariant the differential tests pin
// against the step-by-step oracle: a cap may change kernel clocks,
// powers, and durations — never which kernels run, which nodes they
// run on, or which noise they see.
package core

import (
	"vasppower/internal/hw/platform"
	"vasppower/internal/workloads"
)

// SweepContext is the reusable cap-independent state of one
// measurement spec. Build it once per sweep (the constructor performs
// the resolution phase), call MeasureCap per point, and Close it to
// release the node arena. A context serves one goroutine at a time.
type SweepContext struct {
	spec  MeasureSpec
	arena *Arena // nil: the context owns its storage
	sw    *workloads.Sweep
	// nodeOnly profiles each point at node resolution (MeasureNodeIn).
	nodeOnly bool
	// milc marks a MILC sweep: its profiles keep node 0's name, as
	// ProfileRun's do.
	milc bool
}

// NewSweepContext prepares a context for sweeping spec across caps
// (spec.CapW is ignored; each MeasureCap call supplies the cap).
// Construction errors are returned as they are: Measure raises the
// same message from the same code.
func NewSweepContext(spec MeasureSpec) (*SweepContext, error) { return NewSweepContextIn(nil, spec) }

// NewSweepContextIn is NewSweepContext building its sweep and profiles
// in a's storage, which Close (or a failed construction) hands back;
// points are bit-identical to NewSweepContext's. a must serve nothing
// else until Close returns.
func NewSweepContextIn(a *Arena, spec MeasureSpec) (*SweepContext, error) {
	spec = spec.withDefaults()
	spec.CapW = 0
	sw, err := workloads.NewSweepIn(a.sweepArena(), workloads.RunSpec{
		Bench:          spec.Bench,
		Platform:       spec.Platform,
		Nodes:          spec.Nodes,
		Repeats:        spec.Repeats,
		Seed:           spec.Seed,
		OperandEntropy: spec.Entropy,
		Sink:           spec.Sink,
	})
	if err != nil {
		return nil, err
	}
	return &SweepContext{spec: spec, arena: a, sw: sw}, nil
}

// NewMILCSweepContextIn is NewSweepContextIn for a MILC run
// (spec.GPUPowerLimit is ignored): each MeasureCap point is
// bit-identical to ProfileRun of RunMILC at that cap, at
// DefaultSamplingInterval.
func NewMILCSweepContextIn(a *Arena, spec workloads.MILCRunSpec) (*SweepContext, error) {
	spec.Platform = platform.OrDefault(spec.Platform)
	spec.GPUPowerLimit = 0
	sw, err := workloads.NewMILCSweepIn(a.sweepArena(), spec)
	if err != nil {
		return nil, err
	}
	return &SweepContext{spec: MeasureSpec{Platform: spec.Platform}, arena: a, sw: sw, milc: true}, nil
}

// MeasureCap measures the context's spec under one GPU power cap,
// bit-identical to Measure with CapW: capW. Non-binding caps (<= 0 or
// >= the platform GPU's TDP) run uncapped, matching MeasureSpec
// normalization. After Close it fails.
func (c *SweepContext) MeasureCap(capW float64) (JobProfile, error) {
	if capW <= 0 || capW >= c.spec.Platform.GPU.TDP {
		capW = 0
	}
	out, err := c.sw.RunCap(capW)
	if err != nil {
		return JobProfile{}, err
	}
	// The profile owns everything it keeps (sampled series, summaries),
	// so it stays valid after the sweep's storage is reused or
	// released.
	jp := c.arena.profileRun(out, DefaultSamplingInterval, c.nodeOnly)
	if !c.milc {
		jp.Name = c.spec.Bench.Name
	}
	return jp, nil
}

// Close releases the context's nodes and hands its storage back to its
// Arena. Idempotent.
func (c *SweepContext) Close() { c.sw.Close() }
