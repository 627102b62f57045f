package sched

import (
	"fmt"
	"testing"
)

// benchConfig builds the facility benchmark configuration: budget
// 1100 W/node over idle 460, profile-aware policy, fake (solver-free)
// measurements so the numbers isolate the simulate loop itself, and
// arrival rate scaled with cluster size (90 s mean inter-arrival at 8
// nodes) so every scale runs near saturation.
func benchConfig(nodes int) (SimConfig, float64) {
	cfg := SimConfig{
		ClusterNodes: nodes,
		BudgetW:      float64(nodes) * 1100,
		IdleNodeW:    460,
		Policy:       DefaultProfileAware(),
		Catalog:      fakeCatalog(1),
	}
	return cfg, 90.0 * 8 / float64(nodes)
}

// BenchmarkSimulate measures the incremental loop across the facility
// grid: {8, 128, 1800} nodes × {1k, 10k, 100k} jobs. Jobs are
// materialized outside the timer (generation is the stream's cost,
// not the scheduler's) and the catalog is warmed by one untimed run,
// so allocs/op ÷ jobs is the loop's per-job allocation count.
func BenchmarkSimulate(b *testing.B) {
	for _, nodes := range []int{8, 128, 1800} {
		for _, jobs := range []int{1000, 10000, 100000} {
			b.Run(fmt.Sprintf("nodes=%d/jobs=%d", nodes, jobs), func(b *testing.B) {
				cfg, mean := benchConfig(nodes)
				mix := SyntheticJobMix(jobs, mean, 2024)
				if _, err := Simulate(cfg, mix); err != nil { // warm catalog
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := Simulate(cfg, mix)
					if err != nil {
						b.Fatal(err)
					}
					if res.Completed+res.Dropped != len(mix) {
						b.Fatalf("lost jobs: %d+%d of %d", res.Completed, res.Dropped, len(mix))
					}
				}
			})
		}
	}
}

// BenchmarkSimulateStream measures the streaming entry point at the
// facility preset scale, generation included — the end-to-end cost of
// `pmsched -preset facility`.
func BenchmarkSimulateStream(b *testing.B) {
	for _, jobs := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("nodes=1800/jobs=%d", jobs), func(b *testing.B) {
			cfg, mean := benchConfig(1800)
			if _, err := SimulateStream(cfg, SyntheticJobStream(jobs, mean, 2024)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SimulateStream(cfg, SyntheticJobStream(jobs, mean, 2024)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatePolicies measures pmsched's policy comparison at
// facility scale without its measurements: per iteration, one mix is
// drawn and simulated under the three policies, each through its own
// cursor over the shared table (sequentially, so the time is the
// total work rather than the host's parallelism). Each policy's
// catalog is warmed by one untimed run.
func BenchmarkSimulatePolicies(b *testing.B) {
	policies := []Policy{NoCap{NodeTDP: 2350}, UniformCap{Watts: 200, HostWatts: 350}, DefaultProfileAware()}
	for _, jobs := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("nodes=1800/jobs=%d", jobs), func(b *testing.B) {
			cfgs := make([]SimConfig, len(policies))
			var mean float64
			for i, p := range policies {
				cfgs[i], mean = benchConfig(1800)
				cfgs[i].Policy = p
			}
			run := func() {
				mix := NewSyntheticMix(jobs, mean, 2024)
				for _, cfg := range cfgs {
					res, err := SimulateStream(cfg, mix.Stream())
					if err != nil {
						b.Fatal(err)
					}
					if res.Completed+res.Dropped != jobs {
						b.Fatalf("lost jobs: %d+%d of %d", res.Completed, res.Dropped, jobs)
					}
				}
			}
			run() // warm the catalogs
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// BenchmarkSimulateOracle measures the retained pre-refactor loop at
// the scales it can reach, for the before/after ratio in BENCH.md.
// (At 1800 nodes × 100k jobs the O(cycles × queue) rescans make it
// impractical — which is the point of the refactor.)
func BenchmarkSimulateOracle(b *testing.B) {
	for _, bc := range []struct{ nodes, jobs int }{{8, 1000}, {128, 10000}} {
		b.Run(fmt.Sprintf("nodes=%d/jobs=%d", bc.nodes, bc.jobs), func(b *testing.B) {
			cfg, mean := benchConfig(bc.nodes)
			mix := SyntheticJobMix(bc.jobs, mean, 2024)
			if _, err := simulateOracle(cfg, mix); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := simulateOracle(cfg, mix); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
