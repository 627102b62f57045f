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
	// Obs carries the run's telemetry sinks (metrics and span tracer).
	// Nil — the default — disables telemetry entirely; metrics and
	// spans never influence results or rendered output either way.
	Obs *obs.Obs
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

// measurement cache: the scaling, capping, and profiling figures share
// many runs; each (benchmark, nodes, cap, repeats, seed) is measured
// once per process. The sharded singleflight cache deduplicates
// concurrent misses — when parallel runners race to the same key, one
// computes and the rest wait for its result. EnableDiskCache attaches
// a persistent second tier that carries results across processes.
var cache = memo.New[core.JobProfile]()

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

// diskMu guards the EnableDiskCache/Instrument handshake: whichever
// runs second must still connect the store to the registry.
var (
	diskMu    sync.Mutex
	diskStore *diskcache.Store
	diskReg   *obs.Registry
)

// EnableDiskCache attaches a persistent content-addressed result cache
// under dir as the measurement cache's second tier (memory → disk →
// compute), bounded to maxBytes by LRU eviction (0 = unbounded). It
// returns the opened store so callers can inspect it. If Instrument
// has installed (or later installs) a registry, the store's counters
// register under "diskcache." and land in the run manifest.
func EnableDiskCache(dir string, maxBytes int64) (*diskcache.Store, error) {
	st, err := diskcache.Open(diskcache.Options{Dir: dir, MaxBytes: maxBytes, Epoch: CacheEpoch})
	if err != nil {
		return nil, err
	}
	diskMu.Lock()
	diskStore = st
	if diskReg != nil {
		st.Instrument(diskcache.NewMetrics(diskReg, "diskcache"))
	}
	diskMu.Unlock()
	cache.SetStore(st, profileCodec())
	return st, nil
}

// DisableDiskCache detaches the persistent tier (entries on disk are
// kept). Tests use it to restore the memory-only configuration.
func DisableDiskCache() {
	diskMu.Lock()
	diskStore = nil
	diskMu.Unlock()
	cache.SetStore(nil, memo.Codec[core.JobProfile]{})
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

// Instrument threads reg through every hot path the measurement
// engine owns: the measurement cache, the worker pools, the simulation
// engine, the OMNI store, and the trace pipeline. Call once at startup
// (a nil reg detaches everything); telemetry is process-wide from then
// on.
func Instrument(reg *obs.Registry) {
	diskMu.Lock()
	diskReg = reg
	st := diskStore
	diskMu.Unlock()
	if reg == nil {
		cache.Instrument(nil)
		if st != nil {
			st.Instrument(nil)
		}
		par.SetMetrics(nil)
		sched.SetMetrics(nil)
		sim.SetMetrics(nil)
		omni.SetMetrics(nil)
		timeseries.SetMetrics(nil)
		telemetry.SetMetrics(nil)
		return
	}
	cache.Instrument(memo.NewMetrics(reg, "memo"))
	if st != nil {
		st.Instrument(diskcache.NewMetrics(reg, "diskcache"))
	}
	par.SetMetrics(par.NewMetrics(reg))
	sched.SetMetrics(sched.NewMetrics(reg))
	sim.SetMetrics(sim.NewMetrics(reg))
	omni.SetMetrics(omni.NewMetrics(reg))
	timeseries.SetMetrics(timeseries.NewMetrics(reg))
	telemetry.SetMetrics(telemetry.NewMetrics(reg))
}

// SpecKey returns the canonical cache identity of spec: the string the
// measurement cache keys it under, after applying the same defaults
// CachedMeasureSpec applies. Two specs with equal SpecKeys are the
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

// CachedMeasureSpec runs spec through the process-wide two-tier
// measurement cache: memory, then the disk tier when EnableDiskCache
// has attached one, then core.Measure. It is the entry point the CLIs
// outside powerstudy share, so a profile measured by any tool warms
// every other tool's sweep. Zero spec fields take core.Measure's
// protocol defaults before keying, so equivalent specs hit the same
// entry.
func CachedMeasureSpec(spec core.MeasureSpec) (core.JobProfile, error) {
	return cachedMeasure(nil, spec, func() (core.JobProfile, error) { return core.Measure(spec) })
}

// CachedMeasureGroup measures spec at each cap point through the same
// two-tier cache as CachedMeasureSpec, but shares one incremental
// sweep context (the cap-independent resolution phase) across every
// point that actually computes. The context is built lazily on the
// first cache miss, so a fully warm group touches only the cache; each
// point still goes through cache.Do individually, keeping singleflight
// dedup and disk write-back per point. Results are bit-identical to
// per-point CachedMeasureSpec calls.
func CachedMeasureGroup(spec core.MeasureSpec, caps []float64) ([]core.JobProfile, error) {
	return cachedMeasureCaps(nil, spec, caps)
}

// cachedMeasureCaps is CachedMeasureGroup with spans: each point is one
// cachedMeasure lookup, and the points that miss share one sweep
// context, built on the first miss so a warm sweep never pays the
// resolution phase.
func cachedMeasureCaps(o *obs.Obs, spec core.MeasureSpec, caps []float64) ([]core.JobProfile, error) {
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
		jp, err := cachedMeasure(o, pt, func() (core.JobProfile, error) {
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

// cachedMeasure is the one keyed lookup behind every cached
// measurement: memory, then disk, then compute, under SpecKey(spec).
// With o carrying a tracer, each lookup opens a "measure" span
// recording the spec, the wall time, and whether the cache — either
// tier — served it without computing.
func cachedMeasure(o *obs.Obs, spec core.MeasureSpec, compute func() (core.JobProfile, error)) (core.JobProfile, error) {
	sp := o.Span("measure")
	computed := false
	jp, err := cache.Do(context.Background(), SpecKey(spec), func() (core.JobProfile, error) {
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

// spec returns the measurement of b on cfg's platform at cfg's seed.
func (c Config) spec(b workloads.Benchmark, nodes, repeats int) core.MeasureSpec {
	return core.MeasureSpec{Bench: b, Platform: c.platform(), Nodes: nodes, Repeats: repeats, Seed: c.seed()}
}

// measure runs (or recalls) one benchmark measurement on cfg's
// platform at cfg's seed.
func measure(cfg Config, b workloads.Benchmark, nodes, repeats int, capW float64) (core.JobProfile, error) {
	spec := cfg.spec(b, nodes, repeats)
	spec.CapW = capW
	return cachedMeasure(cfg.Obs, spec, func() (core.JobProfile, error) { return core.Measure(spec) })
}

// measureGroup is measure across a cap sweep of one benchmark.
// Results are bit-identical to per-point measure calls.
func measureGroup(cfg Config, b workloads.Benchmark, nodes, repeats int, caps []float64) ([]core.JobProfile, error) {
	return cachedMeasureCaps(cfg.Obs, cfg.spec(b, nodes, repeats), caps)
}

// ResetCache clears the measurement cache's memory tier (tests use it
// to force fresh in-process runs). With a disk tier attached the next
// lookup hits disk, not a recomputation.
func ResetCache() { cache.Reset() }

// highMode extracts the node-level high power mode (0 when absent).
func highMode(jp core.JobProfile) float64 {
	m, _ := jp.NodeTotal.HighMode()
	return m.X
}
