// Package core implements the paper's central contribution as a
// reusable pipeline: run a workload, sample its power telemetry,
// characterize the distribution (high power mode + FWHM, the paper's
// preferred metrics over mean/max, §III-B.3), and assess the
// performance/power response to GPU power caps (§V).
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"vasppower/internal/hw/node"
	"vasppower/internal/hw/platform"
	"vasppower/internal/stats"
	"vasppower/internal/telemetry"
	"vasppower/internal/timeseries"
	"vasppower/internal/workloads"
)

// DefaultSamplingInterval is the effective telemetry interval of the
// paper's LDMS pipeline (nominal 1 s, effective 2 s after drops).
const DefaultSamplingInterval = 2.0

// Profile characterizes one power signal. The summary is computed
// when the profile is built; the KDE modes, which cost far more, are
// computed on the first call to Modes or HighMode and shared by every
// copy of the profile, so a series nobody reads the modes of never
// pays for them.
type Profile struct {
	Series  timeseries.Series
	Summary stats.Summary
	modes   *modeCell // nil for an empty series: no modes
}

// ProfileSeries builds a Profile from a sampled series. The profile
// keeps s.Values for its modes, so the caller must not modify them
// afterwards.
func ProfileSeries(s timeseries.Series) Profile { return (*Arena)(nil).profileSeries(s) }

// profileSeries is ProfileSeries summarizing in a's scratch.
func (a *Arena) profileSeries(s timeseries.Series) Profile {
	p := Profile{Series: s}
	if s.Len() == 0 {
		return p
	}
	p.Summary, _ = stats.DescribeInto(s.Values, a.sortScratch())
	p.modes = &modeCell{values: s.Values}
	return p
}

// Modes returns all modes of the series' KDE, low → high power. Every
// copy of the profile returns the same slice; do not modify it.
func (p Profile) Modes() []stats.Mode {
	if p.modes == nil {
		return nil
	}
	return p.modes.get().modes
}

// HighMode returns the paper's "high power mode": the highest-power
// mode of the series' KDE. ok is false when the series has none.
func (p Profile) HighMode() (m stats.Mode, ok bool) {
	if p.modes == nil {
		return stats.Mode{}, false
	}
	c := p.modes.get()
	return c.high, c.has
}

// modeCell computes a series' modes once, on first read. The KDE is
// stats.NewKDE with Silverman's bandwidth on a 512-point grid, which
// stats.DescribeKDE documents as bit-identical to its own, so the
// modes do not depend on when, or whether eagerly, they are computed.
// A decoded profile's cell is built filled when its entry stored the
// modes, and lazy over the decoded series when it did not.
type modeCell struct {
	once   sync.Once
	values []float64 // the series to estimate; nil once filled
	modes  []stats.Mode
	high   stats.Mode
	has    bool
	filled atomic.Bool // set once modes, high and has hold the result
}

// setFilled stores modes read from elsewhere (a cache entry) in c and
// marks it filled, so it never runs the KDE.
func (c *modeCell) setFilled(modes []stats.Mode, high stats.Mode, has bool) {
	c.once.Do(func() {
		c.modes, c.high, c.has = modes, high, has
		c.filled.Store(true)
	})
}

func (c *modeCell) get() *modeCell {
	c.once.Do(c.fill)
	return c
}

func (c *modeCell) fill() {
	c.modes = stats.NewKDE(c.values, 0, 512).Modes(stats.DefaultModeThreshold)
	if len(c.modes) > 0 {
		c.high, c.has = c.modes[len(c.modes)-1], true
	}
	c.values = nil
	c.filled.Store(true)
}

// isFilled reports whether c holds its modes, without computing them.
func (c *modeCell) isFilled() bool { return c != nil && c.filled.Load() }

// JobProfile holds per-component profiles of one executed job window.
type JobProfile struct {
	Name             string
	SamplingInterval float64
	Runtime          float64
	EnergyJ          float64

	NodeTotal Profile // node-level sensor (components + peripherals)
	CPU       Profile
	Mem       Profile
	GPUs      []Profile // one per device on the node
	GPUSum    Profile   // all GPUs combined
}

// FilledModes counts the series of jp whose modes have been computed
// (or decoded) so far, without computing any. Reading a mode can only
// raise it.
func (jp JobProfile) FilledModes() int {
	n := 0
	for _, p := range [...]Profile{jp.NodeTotal, jp.CPU, jp.Mem, jp.GPUSum} {
		if p.modes.isFilled() {
			n++
		}
	}
	for _, p := range jp.GPUs {
		if p.modes.isFilled() {
			n++
		}
	}
	return n
}

// GPUShareOfNode returns the fraction of mean node power drawn by the
// GPUs (the paper reports >70% for the heavy benchmarks).
func (jp JobProfile) GPUShareOfNode() float64 {
	if jp.NodeTotal.Summary.Mean == 0 {
		return 0
	}
	return jp.GPUSum.Summary.Mean / jp.NodeTotal.Summary.Mean
}

// CPUMemShareOfNode returns the CPU+memory fraction of mean node
// power (<10% for the heavy benchmarks, §III-C).
func (jp JobProfile) CPUMemShareOfNode() float64 {
	if jp.NodeTotal.Summary.Mean == 0 {
		return 0
	}
	return (jp.CPU.Summary.Mean + jp.Mem.Summary.Mean) / jp.NodeTotal.Summary.Mean
}

// GPUHighMode returns the mean high power mode of the node's GPUs that
// have one, or 0 if none does.
func (jp JobProfile) GPUHighMode() float64 {
	var sum float64
	n := 0
	for _, g := range jp.GPUs {
		if m, ok := g.HighMode(); ok {
			sum += m.X
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ProfileWindow profiles one node's traces over [start, end] at the
// given sampling interval.
func ProfileWindow(n *node.Node, start, end, interval float64) JobProfile {
	jp := (*Arena)(nil).profileWindow(n, start, end, interval, false)
	jp.EnergyJ = n.TotalTrace().EnergyBetween(start, end)
	return jp
}

// profileWindow is ProfileWindow without the energy, summarizing in a's
// scratch. Each series is sampled straight into its own exact-size
// slices, which the profile keeps. With nodeOnly it samples the node
// sensor alone and leaves the other profiles zero.
func (a *Arena) profileWindow(n *node.Node, start, end, interval float64, nodeOnly bool) JobProfile {
	jp := JobProfile{Name: n.Name, SamplingInterval: interval, Runtime: end - start}
	sample := func(tr *timeseries.Trace) Profile {
		return a.profileSeries(tr.SampleWindow(start, end, interval))
	}
	jp.NodeTotal = sample(n.TotalTrace())
	if nodeOnly {
		return jp
	}
	jp.CPU = sample(n.CPUTrace())
	jp.Mem = sample(n.MemTrace())
	jp.GPUs = make([]Profile, n.NumGPUs())
	for i := range jp.GPUs {
		jp.GPUs[i] = sample(n.GPUTrace(i))
	}
	jp.GPUSum = sample(n.GPUSumTrace())
	return jp
}

// ProfileRun profiles the selected VASP repeat of a measurement run
// (node 0's view, as the benchmarks are node-balanced).
func ProfileRun(out workloads.RunOutput, interval float64) JobProfile {
	return (*Arena)(nil).profileRun(out, interval, false)
}

// profileRun is ProfileRun summarizing in a's scratch, at node
// resolution with nodeOnly (see profileWindow).
func (a *Arena) profileRun(out workloads.RunOutput, interval float64, nodeOnly bool) JobProfile {
	if len(out.Nodes) == 0 {
		return JobProfile{}
	}
	jp := a.profileWindow(out.Nodes[0], out.VASPStart, out.VASPEnd, interval, nodeOnly)
	jp.Runtime = out.BestResult.Runtime
	// Aggregate energy across all nodes for energy-to-solution.
	for _, n := range out.Nodes {
		jp.EnergyJ += n.TotalTrace().EnergyBetween(out.VASPStart, out.VASPEnd)
	}
	return jp
}

// MeasureSpec configures one measurement: which benchmark, on which
// platform, at what scale, under which GPU power cap. It is the single
// entry point's options struct; zero fields take the paper's protocol
// defaults (default platform, 1 node, 1 repeat, uncapped). Every
// measurement runs serially: its repeats, and a cap response's points.
type MeasureSpec struct {
	Bench    workloads.Benchmark
	Platform platform.Platform // zero = default platform
	Nodes    int               // 0 = 1
	Repeats  int               // 0 = 1; best (min-runtime) repeat is profiled
	CapW     float64           // GPU power cap, W; <= 0 or >= GPU TDP = uncapped
	Seed     uint64
	// Sink streams the profiled repeat's traces, as in RunSpec; it sits
	// outside the cache key.
	Sink *telemetry.Sampler
	// Entropy stamps every GPU kernel in the schedule with this operand
	// entropy in [0,1]; 0 leaves kernels at the platform table's
	// reference (no power shift).
	Entropy float64
}

func (spec MeasureSpec) withDefaults() MeasureSpec {
	spec.Platform = platform.OrDefault(spec.Platform)
	if spec.Nodes <= 0 {
		spec.Nodes = 1
	}
	if spec.Repeats <= 0 {
		spec.Repeats = 1
	}
	// Non-binding caps normalize to the uncapped default: on the real
	// machine the TDP is the default limit, so CapW 0, TDP, and
	// anything above it are one measurement (and one cache identity —
	// experiments.SpecKey applies the same rule).
	if spec.CapW <= 0 || spec.CapW >= spec.Platform.GPU.TDP {
		spec.CapW = 0
	}
	return spec
}

// Measure runs a benchmark with the paper's protocol (repeats,
// min-runtime selection) and returns its profile.
func Measure(spec MeasureSpec) (JobProfile, error) { return MeasureIn(nil, spec) }

// MeasureIn is Measure reusing a's storage: the spec runs as a
// one-point sweep built in a, and the arena gets its storage back once
// the profile, which owns everything it keeps, is built. The profile
// is bit-identical to one measured without an arena. a must serve no
// other measurement until MeasureIn returns; a nil a allocates.
func MeasureIn(a *Arena, spec MeasureSpec) (JobProfile, error) {
	c, err := NewSweepContextIn(a, spec)
	if err != nil {
		return JobProfile{}, err
	}
	defer c.Close()
	return c.MeasureCap(spec.CapW)
}

// MeasureNodeIn is MeasureIn at node resolution, for a reader of the
// node sensor's profile alone (the high power mode, §III-B.3): the same
// one-point sweep, of which only the node sensor is sampled and
// summarized. Name, SamplingInterval, Runtime, the all-node EnergyJ
// and NodeTotal are bit-identical to MeasureIn's; CPU, Mem and GPUSum
// are zero profiles and GPUs is nil.
func MeasureNodeIn(a *Arena, spec MeasureSpec) (JobProfile, error) {
	c, err := NewSweepContextIn(a, spec)
	if err != nil {
		return JobProfile{}, err
	}
	c.nodeOnly = true
	defer c.Close()
	return c.MeasureCap(spec.CapW)
}

// CapPoint is one power-cap measurement.
type CapPoint struct {
	CapW        float64
	Runtime     float64
	RelPerf     float64 // runtime(default) / runtime(cap), ≤ 1 under caps
	GPUHighMode float64 // high power mode per GPU, W
	ModeOverCap float64 // high power mode as a fraction of the cap (Fig. 10)
	EnergyJ     float64
}

// CapResponse is a benchmark's response across caps (Figs. 10, 12).
type CapResponse struct {
	Bench    string
	Nodes    int
	Baseline float64 // runtime at the default (TDP) limit
	Points   []CapPoint
}

// AssembleCapResponse is the one assembly of a CapResponse over caps
// (spec.CapW is ignored). measure is called once, with the points to
// measure: slot 0 is the uncapped baseline (cap 0), then every cap that
// binds (0 < cap < the platform GPU's TDP), in caps order. It returns
// their profiles in that order. A cap of 0 or at or above the TDP
// reuses the baseline, as on the real machine where the TDP is the
// default limit; a cap <= 0 reads as the TDP.
func AssembleCapResponse(spec MeasureSpec, caps []float64, measure func(points []float64) ([]JobProfile, error)) (CapResponse, error) {
	spec = spec.withDefaults()
	tdp := spec.Platform.GPU.TDP
	binds := func(capW float64) bool { return capW > 0 && capW < tdp }
	cr := CapResponse{Bench: spec.Bench.Name, Nodes: spec.Nodes}
	points := []float64{0}
	for _, capW := range caps {
		if binds(capW) {
			points = append(points, capW)
		}
	}
	profiles, err := measure(points)
	if err != nil {
		return cr, err
	}
	base := profiles[0]
	cr.Baseline = base.Runtime
	next := 1
	for _, capW := range caps {
		jp := base
		if binds(capW) {
			jp = profiles[next]
			next++
		}
		pt := CapPoint{
			CapW:        capW,
			Runtime:     jp.Runtime,
			RelPerf:     cr.Baseline / jp.Runtime,
			GPUHighMode: jp.GPUHighMode(),
			EnergyJ:     jp.EnergyJ,
		}
		if capW <= 0 {
			pt.CapW = tdp
		}
		pt.ModeOverCap = pt.GPUHighMode / pt.CapW
		cr.Points = append(cr.Points, pt)
	}
	return cr, nil
}

// MeasureCapResponse measures the uncapped baseline and every binding
// cap serially on one sweep context, which resolves the schedule once
// and re-runs only the cap solver per point, and assembles the
// response in caps order (see AssembleCapResponse). Every point is
// bit-identical to an independent Measure at the same seed (pinned by
// the differential tests).
func MeasureCapResponse(spec MeasureSpec, caps []float64) (CapResponse, error) {
	return AssembleCapResponse(spec, caps, func(points []float64) ([]JobProfile, error) {
		sctx, err := NewSweepContext(spec)
		if err != nil {
			return nil, err
		}
		defer sctx.Close()
		profiles := make([]JobProfile, len(points))
		for i, capW := range points {
			if profiles[i], err = sctx.MeasureCap(capW); err != nil {
				return nil, err
			}
		}
		return profiles, nil
	})
}

// SlowdownAt returns the fractional slowdown (runtime increase) at the
// given cap, or an error if the cap was not measured.
func (cr CapResponse) SlowdownAt(capW float64) (float64, error) {
	for _, p := range cr.Points {
		if math.Abs(p.CapW-capW) < 1e-9 {
			return p.Runtime/cr.Baseline - 1, nil
		}
	}
	return 0, fmt.Errorf("core: cap %v W not measured for %s", capW, cr.Bench)
}
