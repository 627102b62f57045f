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
	"errors"
	"fmt"
	"sync"

	"vasppower/internal/workloads"
)

// SweepContext is the reusable cap-independent state of one
// measurement spec. Build it once per sweep, call MeasureCap per
// point, and Close it to release the node arena. The first MeasureCap
// call performs the resolution phase lazily, so a sweep whose points
// are all served from a cache never allocates an arena at all.
//
// While a telemetry sink is streaming, the node arena cannot be reused
// (reuse would corrupt the sink's trace cursors; NewSweep returns
// workloads.ErrSweepUnavailable), so every point is measured with
// Measure instead — the same numbers, one allocation per
// point. Construction errors are returned as they are: Measure would
// raise the same message from the same code.
//
// MeasureCap is safe for concurrent use (calls serialize on the
// context's mutex; points are independent, so order does not matter).
type SweepContext struct {
	mu     sync.Mutex
	spec   MeasureSpec
	sw     *workloads.Sweep
	err    error // construction error, returned for every point
	inited bool
	closed bool
}

// NewSweepContext prepares a context for sweeping spec across caps
// (spec.CapW is ignored; each MeasureCap call supplies the cap).
func NewSweepContext(spec MeasureSpec) *SweepContext {
	spec = spec.withDefaults()
	spec.CapW = 0
	spec.Workers = 1 // parallelism belongs across points, repeats stay serial
	return &SweepContext{spec: spec}
}

// MeasureCap measures the context's spec under one GPU power cap,
// bit-identical to Measure with CapW: capW. Non-binding caps (<= 0 or
// >= the platform GPU's TDP) run uncapped, matching MeasureSpec
// normalization.
func (c *SweepContext) MeasureCap(capW float64) (JobProfile, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return JobProfile{}, fmt.Errorf("core: sweep context is closed")
	}
	if capW <= 0 || capW >= c.spec.Platform.GPU.TDP {
		capW = 0
	}
	if !c.inited {
		c.inited = true
		c.sw, c.err = workloads.NewSweep(workloads.RunSpec{
			Bench:          c.spec.Bench,
			Platform:       c.spec.Platform,
			Nodes:          c.spec.Nodes,
			Repeats:        c.spec.Repeats,
			Seed:           c.spec.Seed,
			Workers:        1,
			OperandEntropy: c.spec.Entropy,
		})
		if errors.Is(c.err, workloads.ErrSweepUnavailable) {
			c.err = nil // no arena: Measure each point
		}
	}
	if c.err != nil {
		return JobProfile{}, c.err
	}
	if c.sw == nil {
		pt := c.spec
		pt.CapW = capW
		return Measure(pt)
	}
	out, err := c.sw.RunCap(capW)
	if err != nil {
		return JobProfile{}, err
	}
	// The profile deep-copies everything it keeps (sampled series,
	// summaries), so it stays valid after the arena is reused or
	// released.
	jp := ProfileRun(out, DefaultSamplingInterval)
	jp.Name = c.spec.Bench.Name
	return jp, nil
}

// Close releases the context's node arena (a no-op if the resolution
// phase never ran, e.g. every point was a cache hit). Idempotent.
func (c *SweepContext) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.sw != nil {
		c.sw.Close()
		c.sw = nil
	}
}
