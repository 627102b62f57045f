package vasppower_test

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper, each regenerating that experiment end to end (workload
// generation, simulated execution, telemetry sampling, and the
// statistical analysis). Run with:
//
//	go test -bench=. -benchmem
//
// The per-iteration wall time is the cost of regenerating the whole
// experiment; cmd/powerstudy prints the actual figures.
//
// Cache policy: benchCfg carries no run environment, so every runner
// call measures in a fresh private one — a cold cache per iteration,
// which is what makes the numbers comparable across benchmarks and
// stable when a runner later gains or loses cached measurements.

import (
	"testing"

	"vasppower/internal/experiments"
)

// benchCfg is the quick configuration: trimmed sweeps, one repeat —
// enough to exercise every code path of each figure.
func benchCfg() experiments.Config {
	return experiments.Config{Seed: 42, Quick: true, Repeats: 1}
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTableI(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1ProtocolRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig1(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2SamplingRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig2(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3Timelines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig3(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4And5Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunScaling(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6SizeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig6(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7ParameterSweeps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig7(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Concurrency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9MethodViolins(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig9(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10And12CapStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunCapStudy(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11CapTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig11(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13CapsAcrossNodeCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig13(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExtScheduler(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtRepeats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExtRepeats(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtCDVFSVsCapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExtC(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtDPowerPrediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExtD(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtEMILC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExtE(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtFSignatureClustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExtF(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtGMetricAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExtG(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// Warm-disk variants: each measures a runner against a populated
// persistent cache, with a fresh memory tier every iteration — the
// shape of a warm-start sweep, where a fresh process finds every
// measurement already on disk. Compare against the plain benchmark of
// the same runner for the warm-vs-cold ratio (BENCH.md records both).
//
// warmDisk fills a fresh disk tier by running populate once, resets
// the timer, and returns a function that opens a new run environment
// over the same directory (untimed) for each warm iteration.
func warmDisk(b *testing.B, populate func(experiments.Config) error) func() experiments.Config {
	b.Helper()
	dir := b.TempDir()
	open := func() experiments.Config {
		b.StopTimer()
		defer b.StartTimer()
		env, err := experiments.NewEnv(experiments.EnvOptions{CacheDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		cfg := benchCfg()
		cfg.Env = env
		return cfg
	}
	if err := populate(open()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	return open
}

func BenchmarkTableIWarmDisk(b *testing.B) {
	warm := warmDisk(b, func(cfg experiments.Config) error { _, err := experiments.RunTableI(cfg); return err })
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTableI(warm()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4And5ScalingWarmDisk(b *testing.B) {
	warm := warmDisk(b, func(cfg experiments.Config) error { _, err := experiments.RunScaling(cfg); return err })
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunScaling(warm()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10And12CapStudyWarmDisk(b *testing.B) {
	warm := warmDisk(b, func(cfg experiments.Config) error { _, err := experiments.RunCapStudy(cfg); return err })
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunCapStudy(warm()); err != nil {
			b.Fatal(err)
		}
	}
}
