package main

import (
	"io"
	"os"
	"testing"

	"vasppower/internal/experiments"
	"vasppower/internal/obs"
)

// studyWarmOnly is the runner list of the repository benchmark's
// study-warm workload: every -quick runner except fig2, exta, extb and
// extc, whose own uncached work would hide the cache's read path.
const studyWarmOnly = "table1,fig1,fig3,fig4,fig5,fig6,fig7,fig8,fig9,fig10,fig11,fig12,fig13,extd,exte,extf,extg"

// studyRun runs one serial (Workers: 1) -quick study limited to only
// ("" = every runner) through a fresh Env over cacheDir ("" = memory
// only), counting into reg, and flushes the Env as main does.
func studyRun(b *testing.B, reg *obs.Registry, cacheDir, only string) {
	b.Helper()
	env, err := experiments.NewEnv(experiments.EnvOptions{Obs: &obs.Obs{Metrics: reg}, CacheDir: cacheDir})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := run(experiments.Config{Seed: 2024, Quick: true, Workers: 1, Env: env}, only, "", io.Discard); err != nil {
		b.Fatal(err)
	}
	env.Flush()
}

// reportWork reports, per op, the work reg counted over b.N studies:
// samples taken from traces, measurements computed, and bytes read
// from and written to the disk tier.
func reportWork(b *testing.B, reg *obs.Registry) {
	c := reg.Snapshot().Counters
	for _, m := range []struct{ counter, unit string }{
		{"timeseries.samples", "samples/op"},
		{"memo.misses", "misses/op"},
		{"diskcache.bytes_read", "disk_bytes_read/op"},
		{"diskcache.bytes_written", "disk_bytes_written/op"},
	} {
		b.ReportMetric(float64(c[m.counter])/float64(b.N), m.unit)
	}
}

// BenchmarkQuickStudyCold is one whole cold -quick run per iteration,
// serial, through one fresh Env: every measurement computes, so B/op is
// what a cold study allocates end to end.
func BenchmarkQuickStudyCold(b *testing.B) {
	b.ReportAllocs()
	reg := obs.NewRegistry()
	for i := 0; i < b.N; i++ {
		studyRun(b, reg, "", "")
	}
	reportWork(b, reg)
}

// BenchmarkQuickStudyDiskCold is one cold -quick run of the study-warm
// runners per iteration, serial, through a fresh Env over a fresh cache
// directory, flushed at the end: study-warm's set-up, the cost a disk
// tier adds to a cold run.
func BenchmarkQuickStudyDiskCold(b *testing.B) {
	b.ReportAllocs()
	reg := obs.NewRegistry()
	root := b.TempDir()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp(root, "cache-")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		studyRun(b, reg, dir, studyWarmOnly)
	}
	reportWork(b, reg)
}

// BenchmarkQuickStudyWarm is one warm -quick run of the study-warm
// runners per iteration, serial, through a fresh Env over a cache
// directory a cold run of the same runners filled before the timer
// started: every measurement is read from disk.
func BenchmarkQuickStudyWarm(b *testing.B) {
	dir := b.TempDir()
	studyRun(b, obs.NewRegistry(), dir, studyWarmOnly)
	b.ReportAllocs()
	reg := obs.NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		studyRun(b, reg, dir, studyWarmOnly)
	}
	b.StopTimer()
	reportWork(b, reg)
}
