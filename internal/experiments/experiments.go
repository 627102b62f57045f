// Package experiments contains one runner per table and figure of the
// paper's evaluation, plus two extension studies. Every runner
// returns a typed result with a Render method that reproduces the
// figure's content as terminal text; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package experiments

import (
	"context"
	"strconv"

	"vasppower/internal/core"
	"vasppower/internal/hw/platform"
	"vasppower/internal/memo"
	"vasppower/internal/memo/diskcache"
	"vasppower/internal/obs"
	"vasppower/internal/omni"
	"vasppower/internal/par"
	"vasppower/internal/sched"
	"vasppower/internal/sim"
	"vasppower/internal/telemetry"
	"vasppower/internal/timeseries"
	"vasppower/internal/workloads"
)

// Config controls experiment execution.
type Config struct {
	// Platform names the registered hardware platform measurements run
	// on; empty means the default (the paper's perlmutter-a100).
	Platform string
	// Seed drives all stochastic elements (node variability, jitter).
	Seed uint64
	// Repeats per measurement; the paper uses 5. Zero means 5, or 1
	// in Quick mode.
	Repeats int
	// Quick trims sweeps and repeats so the full suite runs in
	// seconds (used by tests; the defaults reproduce the paper).
	Quick bool
	// Workers bounds how many measurements a runner executes
	// concurrently (0 = one per available CPU, 1 = serial). Every
	// measurement is seeded independently of execution order and every
	// sweep assembles by index, so results are identical for all
	// values.
	Workers int
	// Env is the run environment measurements go through. Nil means a
	// fresh private one per measurement, so nothing is shared between
	// them. It never changes a result.
	Env *Env
}

// env returns c's Env, or a fresh memory-only one.
func (c Config) env() *Env {
	if c.Env == nil {
		return newEnv()
	}
	return c.Env
}

func (c Config) repeats() int {
	if c.Repeats > 0 {
		return c.Repeats
	}
	if c.Quick {
		return 1
	}
	return 5
}

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 2024
	}
	return c.Seed
}

// workers resolves Config.Workers to an effective pool size.
func (c Config) workers() int { return par.Workers(c.Workers) }

// platform resolves Config.Platform against the registry; an unknown
// name panics, since runners have no error path for configuration
// mistakes and the CLI validates the flag before building a Config.
func (c Config) platform() platform.Platform {
	if c.Platform == "" {
		return platform.Default()
	}
	p, err := platform.Get(c.Platform)
	if err != nil {
		panic(err)
	}
	return p
}

// Env is one run's measurement environment: the memory cache, the
// optional disk tier behind it, the run's telemetry, and the sampler
// computed runs stream their traces into. What a run reports comes
// from its Env alone, whatever else ran in the process. One Env
// measures each (benchmark, nodes, cap, repeats, seed) once; when
// parallel runners race to one key, one computes and the rest wait.
type Env struct {
	cache *memo.Cache[core.JobProfile]
	store *diskcache.Store
	obs   *obs.Obs
	sink  *telemetry.Sampler
}

// EnvOptions configures NewEnv. The zero value is a memory-only Env
// with no telemetry.
type EnvOptions struct {
	// Obs receives the cache metrics and a "measure" span per lookup;
	// its registry also takes the engine's process-wide metric hooks.
	Obs *obs.Obs
	// Hub, when set, receives the traces of every run the Env computes,
	// sampled at 1 s.
	Hub *telemetry.Hub
	// CacheDir attaches a persistent second tier under this directory
	// (memory → disk → compute); empty means memory only.
	CacheDir string
	// CacheMaxBytes bounds CacheDir by LRU eviction (0 = unbounded).
	CacheMaxBytes int64
}

// NewEnv builds a run environment.
func NewEnv(opts EnvOptions) (*Env, error) {
	e := newEnv()
	e.obs = opts.Obs
	if opts.Hub != nil {
		var err error
		if e.sink, err = telemetry.NewSampler(opts.Hub, 1.0); err != nil {
			return nil, err
		}
	}
	if opts.CacheDir != "" {
		st, err := diskcache.Open(diskcache.Options{Dir: opts.CacheDir, MaxBytes: opts.CacheMaxBytes, Epoch: CacheEpoch})
		if err != nil {
			return nil, err
		}
		e.store = st
		e.cache.SetStore(st, profileCodec())
	}
	if reg := opts.Obs.Reg(); reg != nil {
		e.instrument(reg)
	}
	return e, nil
}

func newEnv() *Env { return &Env{cache: memo.New[core.JobProfile]()} }

// Obs returns the Env's telemetry (nil for a nil Env or none).
func (e *Env) Obs() *obs.Obs {
	if e == nil {
		return nil
	}
	return e.obs
}

// Store returns the Env's disk tier (nil when it has none).
func (e *Env) Store() *diskcache.Store { return e.store }

// Sampler returns the Env's telemetry sampler, for runs made outside
// the cache (nil for a nil Env or none).
func (e *Env) Sampler() *telemetry.Sampler {
	if e == nil {
		return nil
	}
	return e.sink
}

// defaultEnv serves CachedMeasureSpec, CachedMeasureGroup, ResetCache
// and Instrument, and so every serve.Server built without a Measure.
// It is the one mutable variable of this package: the perfbench
// harness drives an in-process server through those four functions.
var defaultEnv = newEnv()

// CacheEpoch versions the persistent tier's value schema. It is mixed
// into every disk entry's content address and header, so entries from
// another epoch simply never match. Bump it whenever (a) the
// core.JobProfile shape or its binary encoding (core.AppendJobProfile)
// changes, or (b) the simulation's semantics change such that an old
// result would be wrong for the same key (anything that would change
// the golden -quick output). The key itself already carries the
// platform name, benchmark size parameters, nodes, repeats, cap, and
// seed at full precision, so ordinary configuration changes need no
// bump.
const CacheEpoch = "jobprofile-bin-v1"

// profileCodec translates JobProfiles for the byte-level disk tier.
// The encoding keeps every float's bits, which is what makes a warm
// run's rendered output byte-identical to the cold run that populated
// the cache.
func profileCodec() memo.Codec[core.JobProfile] {
	encode := func(jp core.JobProfile) ([]byte, error) { return core.AppendJobProfile(nil, jp), nil }
	return memo.Codec[core.JobProfile]{Encode: encode, Decode: core.DecodeJobProfile}
}

// appendMeasureKey appends the cache key of one measurement. It
// includes the size parameters so same-named variants (e.g. a
// synthetic Si128_acfdtr next to the Table I one) never collide, the
// platform name AND its efficiency-table hash so two platforms — or
// the same platform with an edited table — never share a profile, the
// operand entropy (which shifts sustained power), and renders every
// float at full precision — %.0f would alias ENCUT 410.4 with 410 and
// cap 149.6 with 150. A cap at or above the GPU's TDP is the stock
// power limit, not a distinct measurement, so it keys as uncapped
// (core.Measure normalizes the spec the same way before running).
func appendMeasureKey(dst []byte, p platform.Platform, b workloads.Benchmark, nodes, repeats int, capW float64, seed uint64, entropy float64) []byte {
	if capW <= 0 || capW >= p.GPU.TDP {
		capW = 0
	}
	dst = append(dst, p.Name...)
	dst = append(dst, '|')
	if p.Efficiency != nil {
		dst = append(dst, p.Efficiency.Hash()...)
	}
	dst = append(dst, '|')
	dst = append(dst, b.Name...)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(b.NPLWV()), 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(b.NBands), 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(b.NBandsExact), 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(b.NELM), 10)
	dst = append(dst, '|')
	dst = strconv.AppendFloat(dst, b.ENCUT, 'g', -1, 64)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(nodes), 10)
	dst = append(dst, '|')
	dst = strconv.AppendFloat(dst, capW, 'g', -1, 64)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(repeats), 10)
	dst = append(dst, '|')
	dst = strconv.AppendUint(dst, seed, 10)
	dst = append(dst, '|')
	dst = strconv.AppendFloat(dst, entropy, 'g', -1, 64)
	return dst
}

// Instrument threads reg through the default Env's cache and the
// engine's process-wide metric hooks: the worker pools, the scheduler,
// the simulation engine, the OMNI store, and the trace pipeline. A nil
// reg detaches them all.
func Instrument(reg *obs.Registry) { defaultEnv.instrument(reg) }

// instrument points e's cache tiers, and the process-wide metric
// hooks, at reg (nil detaches them).
func (e *Env) instrument(reg *obs.Registry) {
	e.cache.Instrument(metricsOn(reg, func(r *obs.Registry) *memo.Metrics { return memo.NewMetrics(r, "memo") }))
	if e.store != nil {
		e.store.Instrument(metricsOn(reg, func(r *obs.Registry) *diskcache.Metrics { return diskcache.NewMetrics(r, "diskcache") }))
	}
	par.SetMetrics(metricsOn(reg, par.NewMetrics))
	sched.SetMetrics(metricsOn(reg, sched.NewMetrics))
	sim.SetMetrics(metricsOn(reg, sim.NewMetrics))
	omni.SetMetrics(metricsOn(reg, omni.NewMetrics))
	timeseries.SetMetrics(metricsOn(reg, timeseries.NewMetrics))
	telemetry.SetMetrics(metricsOn(reg, telemetry.NewMetrics))
}

// metricsOn builds a package's metric handles on reg, or returns nil —
// the detached hook — when reg is nil.
func metricsOn[M any](reg *obs.Registry, build func(*obs.Registry) *M) *M {
	if reg == nil {
		return nil
	}
	return build(reg)
}

// SpecKey returns the canonical cache identity of spec: the string the
// measurement cache keys it under, after applying the same defaults
// Env.Measure applies. Two specs with equal SpecKeys are the
// same measurement — the serving layer's response cache leans on this
// to give semantically identical requests (reordered JSON fields,
// explicit-vs-implicit defaults) one pre-serialized response.
func SpecKey(spec core.MeasureSpec) string {
	return string(AppendSpecKey(nil, spec))
}

// AppendSpecKey appends SpecKey(spec) to dst and returns the extended
// buffer — byte-identical to SpecKey, for callers (powerd's request
// path, the sweep micro-batcher) that key requests without
// allocating.
func AppendSpecKey(dst []byte, spec core.MeasureSpec) []byte {
	spec.Platform = platform.OrDefault(spec.Platform)
	if spec.Nodes <= 0 {
		spec.Nodes = 1
	}
	if spec.Repeats <= 0 {
		spec.Repeats = 1
	}
	return appendMeasureKey(dst, spec.Platform, spec.Bench, spec.Nodes, spec.Repeats, spec.CapW, spec.Seed, spec.Entropy)
}

// Measure runs spec through the Env's cache: memory, then the disk
// tier when the Env has one, then core.Measure. Zero spec fields take
// core.Measure's protocol defaults before keying, so equivalent specs
// hit the same entry.
func (e *Env) Measure(spec core.MeasureSpec) (core.JobProfile, error) {
	spec.Sink = e.sink
	return e.lookup(spec, func() (core.JobProfile, error) { return core.Measure(spec) })
}

// MeasureGroup measures spec at each cap point through the same cache
// as Measure, one lookup per point, but the points that compute share
// one incremental sweep context (the cap-independent resolution
// phase), built on the first miss. Results are bit-identical to
// per-point Measure calls.
func (e *Env) MeasureGroup(spec core.MeasureSpec, caps []float64) ([]core.JobProfile, error) {
	spec.Sink = e.sink
	out := make([]core.JobProfile, len(caps))
	var sctx *core.SweepContext
	defer func() {
		if sctx != nil {
			sctx.Close()
		}
	}()
	for i, capW := range caps {
		pt := spec
		pt.CapW = capW
		jp, err := e.lookup(pt, func() (core.JobProfile, error) {
			if sctx == nil {
				base := spec
				base.CapW = 0
				sctx = core.NewSweepContext(base)
			}
			return sctx.MeasureCap(capW)
		})
		if err != nil {
			return nil, err
		}
		out[i] = jp
	}
	return out, nil
}

// lookup is the one keyed lookup behind every cached measurement:
// memory, then disk, then compute, under SpecKey(spec), in a "measure"
// span that records whether either tier served it.
func (e *Env) lookup(spec core.MeasureSpec, compute func() (core.JobProfile, error)) (core.JobProfile, error) {
	sp := e.obs.Span("measure")
	computed := false
	jp, err := e.cache.Do(context.Background(), SpecKey(spec), func() (core.JobProfile, error) {
		computed = true
		return compute()
	})
	if sp != nil {
		sp.Set("bench", spec.Bench.Name).Set("platform", platform.OrDefault(spec.Platform).Name).
			Set("nodes", spec.Nodes).Set("repeats", spec.Repeats).Set("cap_w", spec.CapW).
			Set("cache_hit", !computed).Set("error", err != nil)
		sp.End()
	}
	return jp, err
}

// CachedMeasureSpec is Measure on the default Env.
func CachedMeasureSpec(spec core.MeasureSpec) (core.JobProfile, error) {
	return defaultEnv.Measure(spec)
}

// CachedMeasureGroup is MeasureGroup on the default Env.
func CachedMeasureGroup(spec core.MeasureSpec, caps []float64) ([]core.JobProfile, error) {
	return defaultEnv.MeasureGroup(spec, caps)
}

// ResetCache clears the default Env's memory cache.
func ResetCache() { defaultEnv.cache.Reset() }

// spec returns the measurement of b on cfg's platform at cfg's seed.
func (c Config) spec(b workloads.Benchmark, nodes, repeats int) core.MeasureSpec {
	return core.MeasureSpec{Bench: b, Platform: c.platform(), Nodes: nodes, Repeats: repeats, Seed: c.seed()}
}

// measure runs (or recalls) one benchmark measurement on cfg's
// platform at cfg's seed, through cfg's Env.
func measure(cfg Config, b workloads.Benchmark, nodes, repeats int, capW float64) (core.JobProfile, error) {
	spec := cfg.spec(b, nodes, repeats)
	spec.CapW = capW
	return cfg.env().Measure(spec)
}

// measureGroup is measure across a cap sweep of one benchmark.
// Results are bit-identical to per-point measure calls.
func measureGroup(cfg Config, b workloads.Benchmark, nodes, repeats int, caps []float64) ([]core.JobProfile, error) {
	return cfg.env().MeasureGroup(cfg.spec(b, nodes, repeats), caps)
}

// highMode extracts the node-level high power mode (0 when absent).
func highMode(jp core.JobProfile) float64 {
	m, _ := jp.NodeTotal.HighMode()
	return m.X
}
