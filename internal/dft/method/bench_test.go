package method_test

import (
	"testing"

	"vasppower/internal/dft/method"
	"vasppower/internal/hw/platform"
	"vasppower/internal/workloads"
)

// BenchmarkScheduleBuild builds each Table I benchmark's schedule, at
// its optimal node count, into storage that already held it: the
// schedule build of a cold measure in a warm arena.
func BenchmarkScheduleBuild(b *testing.B) {
	p := platform.Default()
	for _, bench := range workloads.TableI() {
		cfg, err := bench.Config(p, bench.OptimalNodes)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bench.Name, func(b *testing.B) {
			var s method.Schedule
			if err := method.BuildInto(&s, cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := method.BuildInto(&s, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(s.Steps)), "steps/op")
		})
	}
}
