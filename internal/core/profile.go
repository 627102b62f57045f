// Package core implements the paper's central contribution as a
// reusable pipeline: run a workload, sample its power telemetry,
// characterize the distribution (high power mode + FWHM, the paper's
// preferred metrics over mean/max, §III-B.3), and assess the
// performance/power response to GPU power caps (§V).
package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"vasppower/internal/hw/node"
	"vasppower/internal/hw/platform"
	"vasppower/internal/par"
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

// profileSeries is ProfileSeries sorting in a's scratch.
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
// A decoded profile's cell is built already filled.
type modeCell struct {
	once   sync.Once
	values []float64 // the series to estimate; nil once filled
	modes  []stats.Mode
	high   stats.Mode
	has    bool
}

// setFilled stores modes read from elsewhere (a cache entry) in c and
// marks it filled, so it never runs the KDE.
func (c *modeCell) setFilled(modes []stats.Mode, high stats.Mode, has bool) {
	c.once.Do(func() { c.modes, c.high, c.has = modes, high, has })
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
}

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
	jp := (*Arena)(nil).profileWindow(n, start, end, interval)
	jp.EnergyJ = n.TotalTrace().EnergyBetween(start, end)
	return jp
}

// profileWindow is ProfileWindow without the energy, sorting in a's
// scratch. Each series is sampled straight into its own exact-size
// slices, which the profile keeps.
func (a *Arena) profileWindow(n *node.Node, start, end, interval float64) JobProfile {
	jp := JobProfile{Name: n.Name, SamplingInterval: interval, Runtime: end - start}
	sample := func(tr *timeseries.Trace) Profile {
		return a.profileSeries(tr.SampleWindow(start, end, interval))
	}
	jp.NodeTotal = sample(n.TotalTrace())
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
	return (*Arena)(nil).profileRun(out, interval)
}

// profileRun is ProfileRun sorting in a's scratch.
func (a *Arena) profileRun(out workloads.RunOutput, interval float64) JobProfile {
	if len(out.Nodes) == 0 {
		return JobProfile{}
	}
	jp := a.profileWindow(out.Nodes[0], out.VASPStart, out.VASPEnd, interval)
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
// defaults (default platform, 1 node, 1 repeat, uncapped, serial).
type MeasureSpec struct {
	Bench    workloads.Benchmark
	Platform platform.Platform // zero = default platform
	Nodes    int               // 0 = 1
	Repeats  int               // 0 = 1; best (min-runtime) repeat is profiled
	CapW     float64           // GPU power cap, W; <= 0 or >= GPU TDP = uncapped
	Seed     uint64
	// Workers bounds how many of MeasureCapResponse's points run
	// concurrently (0 or 1 = serial); repeats always run serially. The
	// response is identical for every worker count.
	Workers int
	// Sink streams the profiled repeat's traces, as in RunSpec; like
	// Workers it sits outside the cache key.
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
	if spec.Workers == 0 {
		spec.Workers = 1
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
	c := NewSweepContextIn(a, spec)
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

// MeasureCapResponse measures the uncapped baseline and every
// effective cap (below the platform GPU's TDP) and assembles the
// response in cap order (spec.CapW is ignored; the caps argument
// drives the sweep). The needed points are sharded across up to
// spec.Workers sweep contexts, each of which resolves the schedule
// once and re-runs only the cap solver per point; every point is
// bit-identical to an independent Measure at the same seed (pinned by
// the differential tests), so the response is
// identical for every worker count. Caps of 0 or ≥ TDP reuse the
// baseline measurement, as on the real machine where the TDP is the
// default limit.
func MeasureCapResponse(spec MeasureSpec, caps []float64) (CapResponse, error) {
	spec = spec.withDefaults()
	tdp := spec.Platform.GPU.TDP
	cr := CapResponse{Bench: spec.Bench.Name, Nodes: spec.Nodes}
	// Slot 0 is the uncapped baseline; slot i+1 is caps[i], measured
	// only when the cap actually binds.
	profiles := make([]JobProfile, len(caps)+1)
	need := make([]bool, len(caps)+1)
	need[0] = true
	for i, cap := range caps {
		if cap > 0 && cap < tdp {
			need[i+1] = true
		}
	}
	var idxs []int
	for i, n := range need {
		if n {
			idxs = append(idxs, i)
		}
	}
	workers := spec.Workers
	if workers <= 0 || workers > len(idxs) {
		workers = len(idxs)
	}
	err := par.ForEach(context.Background(), par.Workers(workers), workers,
		func(_ context.Context, shard int) error {
			sctx := NewSweepContext(spec)
			defer sctx.Close()
			for j := shard; j < len(idxs); j += workers {
				i := idxs[j]
				capW := 0.0
				if i > 0 {
					capW = caps[i-1]
				}
				jp, err := sctx.MeasureCap(capW)
				if err != nil {
					return err
				}
				profiles[i] = jp
			}
			return nil
		})
	if err != nil {
		return cr, err
	}
	base := profiles[0]
	cr.Baseline = base.Runtime
	for i, cap := range caps {
		jp := base
		if need[i+1] {
			jp = profiles[i+1]
		}
		pt := CapPoint{
			CapW:    cap,
			Runtime: jp.Runtime,
			RelPerf: cr.Baseline / jp.Runtime,
			EnergyJ: jp.EnergyJ,
		}
		if cap <= 0 {
			pt.CapW = tdp
		}
		pt.GPUHighMode = jp.GPUHighMode()
		pt.ModeOverCap = pt.GPUHighMode / pt.CapW
		cr.Points = append(cr.Points, pt)
	}
	return cr, nil
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
