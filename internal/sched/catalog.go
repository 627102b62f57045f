package sched

import (
	"sync"

	"vasppower/internal/core"
	"vasppower/internal/hw/platform"
	"vasppower/internal/workloads"
)

// Profile is what the scheduler knows about running a benchmark at a
// node count under a cap: measured once, reused for every job
// instance (the paper's workflow — profiles are gathered offline and
// consulted at scheduling time).
type Profile struct {
	Runtime    float64 // seconds
	MeanNodeW  float64 // mean node power, W
	ModeNodeW  float64 // high power mode per node, W
	EnergyJ    float64 // job energy
	BaselineRT float64 // runtime at default limits (for loss accounting)
}

// PerfLoss returns the fractional slowdown versus the uncapped run.
func (p Profile) PerfLoss() float64 {
	if p.BaselineRT <= 0 {
		return 0
	}
	return p.Runtime/p.BaselineRT - 1
}

// profileKey identifies one cached profile. A comparable struct key
// (rather than a formatted string) keeps the hot get path free of
// per-call allocations — the facility-scale simulate loop consults
// the catalog once per job start — and preserves the cap at full
// float precision, so nearby caps (149.6 vs 150) never alias.
type profileKey struct {
	bench string
	nodes int
	capW  float64
}

// Catalog measures and caches profiles keyed by (benchmark, nodes,
// cap) for one platform. Safe for concurrent use.
type Catalog struct {
	mu       sync.Mutex
	platform platform.Platform
	seed     uint64
	entries  map[profileKey]Profile
	measure  func(core.MeasureSpec) (core.JobProfile, error)
}

// NewCatalog creates an empty catalog on the default platform; seed
// drives the measurement runs.
func NewCatalog(seed uint64) *Catalog {
	return NewCatalogOn(platform.Platform{}, seed)
}

// NewCatalogOn creates an empty catalog whose measurements run on the
// given platform (zero = default).
func NewCatalogOn(p platform.Platform, seed uint64) *Catalog {
	return &Catalog{
		platform: platform.OrDefault(p), seed: seed,
		entries: make(map[profileKey]Profile), measure: core.Measure,
	}
}

// SetMeasure replaces the measurement function profiles are gathered
// with — the hook pmsched uses to route catalog measurements through
// its run's two-tier result cache so repeated scheduler studies reuse
// prior simulations. Call before the first lookup.
func (c *Catalog) SetMeasure(fn func(core.MeasureSpec) (core.JobProfile, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fn != nil {
		c.measure = fn
	}
}

// get returns the profile for (bench, nodes, cap), measuring it on
// first use. cap = 0 means default limits.
func (c *Catalog) get(b *workloads.Benchmark, nodes int, cap float64) (Profile, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := profileKey{b.Name, nodes, cap}
	if p, ok := c.entries[k]; ok {
		return p, nil
	}
	base, err := c.measureLocked(*b, nodes, 0)
	if err != nil {
		return Profile{}, err
	}
	p := base
	if cap > 0 && cap < c.platform.GPU.TDP {
		p, err = c.measureLocked(*b, nodes, cap)
		if err != nil {
			return Profile{}, err
		}
	}
	p.BaselineRT = base.Runtime
	c.entries[k] = p
	return p, nil
}

// measureLocked runs the benchmark once and summarizes it; results
// are cached under their own key so the baseline is measured once.
func (c *Catalog) measureLocked(b workloads.Benchmark, nodes int, cap float64) (Profile, error) {
	k := profileKey{b.Name, nodes, cap}
	if p, ok := c.entries[k]; ok {
		return p, nil
	}
	jp, err := c.measure(core.MeasureSpec{
		Bench: b, Platform: c.platform, Nodes: nodes, CapW: cap, Seed: c.seed,
	})
	if err != nil {
		return Profile{}, err
	}
	p := Profile{
		Runtime:   jp.Runtime,
		MeanNodeW: jp.NodeTotal.Summary.Mean,
		EnergyJ:   jp.EnergyJ,
	}
	if m, ok := jp.NodeTotal.HighMode(); ok {
		p.ModeNodeW = m.X
	} else {
		p.ModeNodeW = jp.NodeTotal.Summary.Mean
	}
	p.BaselineRT = p.Runtime
	c.entries[k] = p
	return p, nil
}
