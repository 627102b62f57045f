package main

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"time"

	"vasppower/internal/core"
	"vasppower/internal/dft/method"
	"vasppower/internal/experiments"
	"vasppower/internal/hw/platform"
	"vasppower/internal/memo/diskcache"
	"vasppower/internal/obs"
	"vasppower/internal/stats"
	"vasppower/internal/timeseries"
	"vasppower/internal/workloads"
)

// perLayerMetrics lists every per-layer metric a traced run reports, in
// the order BENCHMARK.json declares them. A workload that bypasses a
// layer reports 0 for it, which is itself the evidence of the bypass.
func perLayerMetrics() []string {
	names := []string{}
	for _, r := range studyRunners {
		names = append(names, runnerMetric(r))
	}
	names = append(names,
		"experiments.other_s",
		"experiments.measure_s", "experiments.measures",
		"experiments.measure_hit_s", "experiments.measure_hits",
		"experiments.unattributed_s",
		"memo.lookups", "memo.hits", "memo.misses", "memo.dedups", "memo.hit_ratio", "memo.wait_p99_ms",
		"diskcache.hits", "diskcache.misses", "diskcache.bytes_read", "diskcache.bytes_written",
		"diskcache.corrupt", "diskcache.get_us", "diskcache.put_us",
		"workloads.replayed", "workloads.unreplayed",
		"workloads.run_s", "workloads.sweep_resolve_s", "workloads.sweep_solve_s",
		"workloads.solve_us_per_point", "core.profile_s",
		"timeseries.samples", "timeseries.sum_segments", "timeseries.sample_s", "stats.kde_s",
		"par.items_completed", "par.busy_ratio",
		"sched.simulate_nocap_s", "sched.simulate_uniform_s", "sched.simulate_profile_aware_s",
		"sched.catalog_s", "sched.ns_per_job", "sched.packing_passes", "sched.hol_stalls",
		"sched.jobs_dropped", "sim.steps",
		"serve.hits", "serve.misses", "serve.coalesced", "serve.shed", "serve.errors",
		"serve.timeouts", "serve.hit_ratio", "serve.batch_flushes", "serve.batch_points",
		"serve.batch_merged", "serve.batch_groups", "serve.engine_s",
		"serve.self_p50_ms", "serve.self_p99_ms", "serve.queue_depth_max",
		"loadgen.late_p99_ms", "loadgen.conn_wait_p99_ms",
		"unattributed_s", "trace_overhead_pct",
	)
	return names
}

// layers accumulates one traced run's per-layer metrics.
type layers struct{ m map[string]float64 }

func newLayers() *layers {
	l := &layers{m: map[string]float64{}}
	for _, name := range perLayerMetrics() {
		l.m[name] = 0
	}
	return l
}

// fromSnapshot copies the counters the program emitted (a run
// manifest's metrics, or an in-process registry) into layer metrics.
// workers and wallSeconds turn the pool's busy time into a ratio.
func (l *layers) fromSnapshot(s obs.Snapshot, workers int, wallSeconds float64) {
	c := s.Counters
	for _, name := range []string{
		"memo.lookups", "memo.hits", "memo.misses", "memo.dedups",
		"diskcache.hits", "diskcache.misses", "diskcache.bytes_read", "diskcache.bytes_written",
		"diskcache.corrupt", "timeseries.samples", "timeseries.sum_segments",
		"par.items_completed", "sched.packing_passes", "sched.hol_stalls", "sched.jobs_dropped",
		"sim.steps",
		"serve.hits", "serve.misses", "serve.coalesced", "serve.shed", "serve.errors",
		"serve.timeouts", "serve.batch_flushes", "serve.batch_points", "serve.batch_merged",
		"serve.batch_groups",
	} {
		l.m[name] = float64(c[name])
	}
	l.m["memo.hit_ratio"] = ratio(c["memo.hits"], c["memo.lookups"])
	l.m["serve.hit_ratio"] = ratio(c["serve.hits"], c["serve.hits"]+c["serve.misses"])
	if workers > 0 && wallSeconds > 0 {
		// Nested pools (the experiment list and each runner's sweeps)
		// both count their busy time, so the ratio can pass 1.
		l.m["par.busy_ratio"] = float64(c["par.worker_busy_ns"]) / (float64(workers) * wallSeconds * 1e9)
	}
	l.m["memo.wait_p99_ms"] = histTail(s.Histograms["memo.wait_ms"], 99).Value
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// histTail applies the tail rule of tailOf to a fixed-bucket histogram:
// the value is the upper bound of the bucket holding that rank, or the
// last bound when the rank falls in the overflow bucket.
func histTail(h obs.HistogramSnapshot, want float64) tail {
	n := int(h.Count)
	if n == 0 || len(h.Buckets) == 0 {
		return tail{Label: "max", N: n}
	}
	label, q := "max", 1.0
	if p, ok := tailPercentile(n, want); ok {
		label, q = fmt.Sprintf("p%.3g", p), p/100
	}
	rank := int64(math.Ceil(q * float64(n)))
	var cum int64
	for _, b := range h.Buckets {
		cum += b.Count
		if cum >= rank {
			return tail{Label: label, Value: b.LE, N: n}
		}
	}
	return tail{Label: label, Value: h.Buckets[len(h.Buckets)-1].LE, N: n}
}

// measureSpec is a measurement as a span or a serving request names
// it: a benchmark by name plus the scalar parameters.
type measureSpec struct {
	bench          string
	nodes, repeats int
	capW           float64
	seed           uint64
}

var siliconName = regexp.MustCompile(`^Si([0-9]+)_([a-z_]+)$`)

// resolveBench finds the benchmark a span names: a Table I benchmark,
// or a synthetic silicon supercell named Si<atoms>_<method>. Variants
// the experiments derive by editing a benchmark (suffixes such as
// _encut or _nplwv512000) cannot be rebuilt from their names.
func resolveBench(name string) (workloads.Benchmark, bool) {
	if b, ok := workloads.ByName(name); ok {
		return b, true
	}
	sm := siliconName.FindStringSubmatch(name)
	if sm == nil {
		return workloads.Benchmark{}, false
	}
	atoms, err := strconv.Atoi(sm[1])
	if err != nil {
		return workloads.Benchmark{}, false
	}
	for _, k := range method.Kinds() {
		if k.String() == sm[2] {
			b, err := workloads.SiliconBenchmark(atoms, k)
			return b, err == nil
		}
	}
	return workloads.Benchmark{}, false
}

func (ms measureSpec) core(b workloads.Benchmark) core.MeasureSpec {
	return core.MeasureSpec{Bench: b, Nodes: ms.nodes, Repeats: ms.repeats, CapW: ms.capW, Seed: ms.seed}
}

// replay re-runs the measurements a traced run computed through the
// engine's layers one call at a time, timing each layer's public entry
// point: workloads.Run for a single point, workloads.NewSweep and
// Sweep.RunCap for points that differ only in cap (they share one
// resolution, as CachedMeasureGroup shares one sweep context), and
// core.ProfileRun on every result. timeseries.Sample and the KDE mode
// search are then timed again on their own, on the same traces.
func (l *layers) replay(specs []measureSpec) error {
	type groupKey struct {
		bench          string
		nodes, repeats int
		seed           uint64
	}
	groups := map[groupKey][]float64{}
	benches := map[string]workloads.Benchmark{}
	var order []groupKey
	seen := map[measureSpec]bool{}
	p := platform.Default()
	for _, ms := range specs {
		if ms.capW <= 0 || ms.capW >= p.GPU.TDP {
			ms.capW = 0
		}
		ms.nodes, ms.repeats = max(ms.nodes, 1), max(ms.repeats, 1)
		if seen[ms] {
			continue
		}
		seen[ms] = true
		b, ok := resolveBench(ms.bench)
		if !ok {
			l.m["workloads.unreplayed"]++
			continue
		}
		l.m["workloads.replayed"]++
		benches[ms.bench] = b
		k := groupKey{ms.bench, ms.nodes, ms.repeats, ms.seed}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], ms.capW)
	}
	points := 0
	for _, k := range order {
		caps := groups[k]
		rs := workloads.RunSpec{
			Bench: benches[k.bench], Platform: p, Nodes: k.nodes,
			Repeats: k.repeats, Seed: k.seed, Workers: 1,
		}
		if len(caps) == 1 {
			rs.GPUPowerLimit = caps[0]
			start := time.Now()
			out, err := workloads.Run(rs)
			l.m["workloads.run_s"] += time.Since(start).Seconds()
			if err != nil {
				return fmt.Errorf("replay %s: %w", k.bench, err)
			}
			l.profile(out)
			continue
		}
		start := time.Now()
		sw, err := workloads.NewSweep(rs)
		l.m["workloads.sweep_resolve_s"] += time.Since(start).Seconds()
		if err != nil {
			return fmt.Errorf("replay sweep %s: %w", k.bench, err)
		}
		for _, capW := range caps {
			start := time.Now()
			out, err := sw.RunCap(capW)
			l.m["workloads.sweep_solve_s"] += time.Since(start).Seconds()
			if err != nil {
				sw.Close()
				return fmt.Errorf("replay sweep %s @%g W: %w", k.bench, capW, err)
			}
			points++
			l.profile(out)
		}
		sw.Close()
	}
	if points > 0 {
		l.m["workloads.solve_us_per_point"] = l.m["workloads.sweep_solve_s"] / float64(points) * 1e6
	}
	return nil
}

// profile times core.ProfileRun on one run's output, then the two
// stages inside it on the same traces: sampling each trace
// (timeseries) and the KDE mode search on each sampled series (stats).
func (l *layers) profile(out workloads.RunOutput) {
	const interval = core.DefaultSamplingInterval
	start := time.Now()
	core.ProfileRun(out, interval)
	l.m["core.profile_s"] += time.Since(start).Seconds()
	if len(out.Nodes) == 0 {
		return
	}
	n := out.Nodes[0]
	traces := []*timeseries.Trace{n.TotalTrace(), n.CPUTrace(), n.MemTrace(), n.GPUSumTrace()}
	for i := 0; i < n.NumGPUs(); i++ {
		traces = append(traces, n.GPUTrace(i))
	}
	series := make([]timeseries.Series, len(traces))
	start = time.Now()
	for i, tr := range traces {
		series[i] = tr.Sample(interval).Slice(out.VASPStart, out.VASPEnd)
	}
	l.m["timeseries.sample_s"] += time.Since(start).Seconds()
	start = time.Now()
	for _, s := range series {
		if s.Len() > 0 {
			stats.NewKDE(s.Values, 0, 512).Modes(stats.DefaultModeThreshold)
		}
	}
	l.m["stats.kde_s"] += time.Since(start).Seconds()
}

// timeDiskCache times Store.Get on every key of the run that resolves
// to a benchmark, in the cache directory the run read, and Store.Put
// of the same entries into a fresh store: the read and write paths of
// the disk tier, per call.
//
// It returns how many keys the store did not hold: a synthetic
// benchmark whose name matches a Table I one keys differently from the
// run, and its lookup is timed as a miss.
func (l *layers) timeDiskCache(dir, putDir string, specs []measureSpec) (missing int, err error) {
	st, err := diskcache.Open(diskcache.Options{Dir: dir, Epoch: experiments.CacheEpoch})
	if err != nil {
		return 0, err
	}
	put, err := diskcache.Open(diskcache.Options{Dir: putDir, Epoch: experiments.CacheEpoch})
	if err != nil {
		return 0, err
	}
	keys := map[string]bool{}
	var gets, puts []float64
	for _, ms := range specs {
		b, ok := resolveBench(ms.bench)
		if !ok {
			continue
		}
		key := experiments.SpecKey(ms.core(b))
		if keys[key] {
			continue
		}
		keys[key] = true
		start := time.Now()
		data, ok := st.Get(key)
		gets = append(gets, time.Since(start).Seconds()*1e6)
		if !ok {
			missing++
			continue
		}
		start = time.Now()
		put.Put(key, data)
		puts = append(puts, time.Since(start).Seconds()*1e6)
	}
	l.m["diskcache.get_us"] = median(gets)
	l.m["diskcache.put_us"] = median(puts)
	return missing, nil
}
