// Package experiments contains one runner per table and figure of the
// paper's evaluation, plus two extension studies. Every runner
// returns a typed result with a Render method that reproduces the
// figure's content as terminal text; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package experiments

import (
	"context"
	"strconv"
	"sync"

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
//
// The cache reads the disk tier but does not write it: the Env writes
// behind the run, in Flush, so an entry stores the modes the run read.
type Env struct {
	cache *memo.Cache[core.JobProfile]
	store *diskcache.Store
	obs   *obs.Obs
	sink  *telemetry.Sampler
	// arenas is the free list of idle measurement arenas, one taken per
	// computed measurement. Its capacity, one per CPU, is as many as
	// can compute at once; an arena returned to a full list is dropped.
	arenas chan *core.Arena

	// ledMu guards led: with a disk tier, every entry this Env's
	// lookups led (computed, or decoded from disk), in lead order.
	ledMu sync.Mutex
	led   []*ledEntry
	// flushMu serializes Flush and guards buf and every ledEntry's
	// stored count.
	flushMu sync.Mutex
	buf     []byte
}

// ledEntry is one entry an Env's lookup led, and how many of its mode
// cells the disk tier holds filled: -1 until the Env writes it.
type ledEntry struct {
	key    string
	jp     core.JobProfile
	stored int
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
	// (memory → disk → compute), which Flush writes; empty means memory
	// only.
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

func newEnv() *Env {
	return &Env{cache: memo.New[core.JobProfile](), arenas: make(chan *core.Arena, par.Workers(0))}
}

// takeArena returns an idle arena, or a new one when none is idle.
func (e *Env) takeArena() *core.Arena {
	select {
	case a := <-e.arenas:
		return a
	default:
		return new(core.Arena)
	}
}

// putArena returns a to the free list, or drops it when the list is
// full. Only an arena no measurement uses any longer may be put.
func (e *Env) putArena(a *core.Arena) {
	select {
	case e.arenas <- a:
	default:
	}
}

// Obs returns the Env's telemetry (nil for a nil Env or none).
func (e *Env) Obs() *obs.Obs {
	if e == nil {
		return nil
	}
	return e.obs
}

// Store returns the Env's disk tier (nil when it has none).
func (e *Env) Store() *diskcache.Store { return e.store }

// Flush writes to the disk tier every entry this Env led whose filled
// mode cells differ from what the tier holds: a computed entry not yet
// written, a disk entry whose lazy cells this run has since read, and
// an entry written by an earlier Flush whose cells were read after it.
// A cell is stored filled only if the run filled it. Flush is a no-op
// without a disk tier; flushes serialize, and lookups go on meanwhile.
// Writes are best-effort, as the tier is: a process that exits without
// flushing leaves only a recomputation for the next one.
func (e *Env) Flush() {
	if e.store == nil {
		return
	}
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	e.ledMu.Lock()
	led := e.led
	e.ledMu.Unlock()
	for _, l := range led {
		// Count before encoding: a cell filled in between is written
		// filled and counted on the next Flush, never the reverse.
		filled := l.jp.FilledModes()
		if filled == l.stored {
			continue
		}
		e.buf = core.AppendJobProfile(e.buf[:0], l.jp)
		e.store.Put(l.key, e.buf)
		l.stored = filled
	}
}

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
const CacheEpoch = "jobprofile-bin-v2"

// profileCodec reads JobProfiles from the byte-level disk tier (Flush
// writes them with core.AppendJobProfile). The encoding keeps every
// float's bits, which is what makes a warm run's rendered output
// byte-identical to the cold run that populated the cache.
func profileCodec() memo.Codec[core.JobProfile] {
	return memo.Codec[core.JobProfile]{Decode: core.DecodeJobProfile}
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
	return e.lookup(SpecKey(spec), measuredSpec(spec), "full", func() (core.JobProfile, error) {
		return e.compute(core.MeasureIn, spec)
	})
}

// nodeKeyPrefix opens the key of every node-resolution entry, so that
// no node-only profile can serve a full lookup, nor a full profile a
// node lookup, in either tier.
const nodeKeyPrefix = "node|"

// measureNode is Measure at node resolution: core.MeasureNodeIn, for
// runners that read nothing but the node sensor's profile, cached under
// nodeKeyPrefix + SpecKey(spec).
func (e *Env) measureNode(spec core.MeasureSpec) (core.JobProfile, error) {
	return e.lookup(nodeKeyPrefix+SpecKey(spec), measuredSpec(spec), "node", func() (core.JobProfile, error) {
		return e.compute(core.MeasureNodeIn, spec)
	})
}

// compute measures spec with measure (core.MeasureIn or
// core.MeasureNodeIn) in one of e's arenas, streaming into e's sampler,
// without consulting or filling the cache: the compute step of Measure
// and measureNode, and the whole measurement for runners that must run
// every time.
func (e *Env) compute(measure func(*core.Arena, core.MeasureSpec) (core.JobProfile, error), spec core.MeasureSpec) (core.JobProfile, error) {
	spec.Sink = e.sink
	a := e.takeArena()
	jp, err := measure(a, spec)
	e.putArena(a)
	return jp, err
}

// MeasureGroup measures spec at each cap point through the same cache
// as Measure, one lookup per point, but the points that compute share
// one incremental sweep context (the cap-independent resolution
// phase), built on the first miss. Results are bit-identical to
// per-point Measure calls.
func (e *Env) MeasureGroup(spec core.MeasureSpec, caps []float64) ([]core.JobProfile, error) {
	spec.Sink = e.sink
	return e.measureGroup(caps, "full", func(capW float64) (string, measured) {
		pt := spec
		pt.CapW = capW
		return SpecKey(pt), measuredSpec(pt)
	}, func(a *core.Arena) *core.SweepContext {
		return core.NewSweepContextIn(a, spec)
	})
}

// milcKeyPrefix opens the key of every MILC entry, so that no MILC
// profile can serve a VASP or node lookup, nor the reverse.
const milcKeyPrefix = "milc|"

// MILCKey returns the canonical cache identity of a MILC run: the
// platform's name and efficiency-table hash, every MILCSpec field,
// nodes, the cap, repeats, seed, clock limit and operand entropy, each
// float at full precision, behind milcKeyPrefix. Like SpecKey it
// applies the run's defaults first (the default platform, at least one
// repeat) and keys a cap at or above the GPU's TDP as uncapped.
func MILCKey(spec workloads.MILCRunSpec) string {
	p := platform.OrDefault(spec.Platform)
	capW := spec.GPUPowerLimit
	if capW <= 0 || capW >= p.GPU.TDP {
		capW = 0
	}
	m := spec.Spec
	dst := append(make([]byte, 0, 128), milcKeyPrefix...)
	dst = append(dst, p.Name...)
	dst = append(dst, '|')
	if p.Efficiency != nil {
		dst = append(dst, p.Efficiency.Hash()...)
	}
	dst = append(dst, '|')
	dst = append(dst, m.Name...)
	for _, n := range [...]int{m.Lattice[0], m.Lattice[1], m.Lattice[2], m.Lattice[3], m.Trajectories, m.MDSteps, m.CGIters, spec.Nodes} {
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	dst = append(dst, '|')
	dst = strconv.AppendFloat(dst, capW, 'g', -1, 64)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(max(spec.Repeats, 1)), 10)
	dst = append(dst, '|')
	dst = strconv.AppendUint(dst, spec.Seed, 10)
	dst = append(dst, '|')
	dst = strconv.AppendFloat(dst, spec.GPUClockLimitMHz, 'g', -1, 64)
	dst = append(dst, '|')
	dst = strconv.AppendFloat(dst, spec.OperandEntropy, 'g', -1, 64)
	return string(dst)
}

// MeasureMILCGroup is MeasureGroup for a MILC run (spec.GPUPowerLimit
// is ignored): one lookup per cap point under MILCKey, the points that
// miss sharing one MILC sweep in one of the Env's arenas. Each profile
// is bit-identical to core.ProfileRun of workloads.RunMILC at that cap.
func (e *Env) MeasureMILCGroup(spec workloads.MILCRunSpec, caps []float64) ([]core.JobProfile, error) {
	spec.Sink = e.sink
	return e.measureGroup(caps, "milc", func(capW float64) (string, measured) {
		pt := spec
		pt.GPUPowerLimit = capW
		return MILCKey(pt), measured{bench: spec.Spec.Name, platform: spec.Platform, nodes: spec.Nodes, repeats: spec.Repeats, capW: capW}
	}, func(a *core.Arena) *core.SweepContext {
		return core.NewMILCSweepContextIn(a, spec)
	})
}

// measureGroup looks up each cap point under the key point returns, at
// resolution; the points that miss share one sweep context, opened in
// one of e's arenas on the first miss and closed, with the arena given
// back, once every point is looked up.
func (e *Env) measureGroup(caps []float64, resolution string, point func(capW float64) (string, measured), open func(*core.Arena) *core.SweepContext) ([]core.JobProfile, error) {
	out := make([]core.JobProfile, len(caps))
	var sctx *core.SweepContext
	var arena *core.Arena
	defer func() {
		if sctx != nil {
			sctx.Close()
			e.putArena(arena)
		}
	}()
	for i, capW := range caps {
		key, m := point(capW)
		jp, err := e.lookup(key, m, resolution, func() (core.JobProfile, error) {
			if sctx == nil {
				arena = e.takeArena()
				sctx = open(arena)
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

// measured names the measurement of one lookup in its "measure" span.
type measured struct {
	bench          string
	platform       platform.Platform
	nodes, repeats int
	capW           float64
}

// measuredSpec is what a span records of a benchmark measurement.
func measuredSpec(spec core.MeasureSpec) measured {
	return measured{bench: spec.Bench.Name, platform: spec.Platform, nodes: spec.Nodes, repeats: spec.Repeats, capW: spec.CapW}
}

// lookup is the one keyed lookup behind every cached measurement:
// memory, then disk, then compute, under key, in a "measure" span that
// records the key, what was measured, the profile's resolution
// ("full", "node" or "milc") and whether either tier served it. With a
// disk tier, it records each entry it leads for Flush.
func (e *Env) lookup(key string, m measured, resolution string, compute func() (core.JobProfile, error)) (core.JobProfile, error) {
	sp := e.obs.Span("measure")
	computed := false
	jp, how, err := e.cache.Flight(context.Background(), key, func() (core.JobProfile, error) {
		computed = true
		return compute()
	})
	if how == memo.Led && err == nil && e.store != nil {
		// A disk entry holds filled the cells it decodes filled. A
		// caller that joined this flight may fill one before the count
		// is taken; that cell is then not written back, which costs the
		// next run one KDE.
		stored := -1
		if !computed {
			stored = jp.FilledModes()
		}
		e.ledMu.Lock()
		e.led = append(e.led, &ledEntry{key: key, jp: jp, stored: stored})
		e.ledMu.Unlock()
	}
	if sp != nil {
		sp.Set("key", key).Set("bench", m.bench).Set("platform", platform.OrDefault(m.platform).Name).
			Set("nodes", m.nodes).Set("repeats", m.repeats).Set("cap_w", m.capW).
			Set("resolution", resolution).Set("cache_hit", !computed).Set("error", err != nil)
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
