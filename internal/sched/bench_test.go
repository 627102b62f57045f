package sched

import (
	"fmt"
	"testing"

	"vasppower/internal/obs"
	"vasppower/internal/sim"
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
// materialized outside the timer (generation is the table's cost,
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

// countWork installs fresh engine and scheduler metrics until the
// benchmark ends, and returns the report to call after its timed loop:
// engine steps and packing passes per op. At a fixed seed both are
// exact, so a change in them is a change in the work done, not noise.
// Call it after any untimed warm-up.
func countWork(b *testing.B) (report func()) {
	reg := obs.NewRegistry()
	steps, m := sim.NewMetrics(reg), NewMetrics(reg)
	sim.SetMetrics(steps)
	SetMetrics(m)
	b.Cleanup(func() {
		sim.SetMetrics(nil)
		SetMetrics(nil)
	})
	return func() {
		b.ReportMetric(float64(steps.Steps.Value())/float64(b.N), "sim.steps/op")
		b.ReportMetric(float64(m.PackingPasses.Value())/float64(b.N), "sched.packing_passes/op")
	}
}

// BenchmarkSimulateStream measures the facility-scale entry point at
// the facility preset scale, the table's draw included — the
// end-to-end cost of one `pmsched -preset facility` policy.
func BenchmarkSimulateStream(b *testing.B) {
	for _, jobs := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("nodes=1800/jobs=%d", jobs), func(b *testing.B) {
			cfg, mean := benchConfig(1800)
			if _, err := SimulateMix(cfg, NewSyntheticMix(jobs, mean, 2024)); err != nil {
				b.Fatal(err)
			}
			report := countWork(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SimulateMix(cfg, NewSyntheticMix(jobs, mean, 2024)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			report()
		})
	}
}

// BenchmarkSimulatePolicies measures pmsched's policy comparison at
// facility scale without its measurements: per iteration, one mix is
// drawn and simulated under the three policies, each reading the
// shared table (sequentially, so the time is the total work rather
// than the host's parallelism). Each policy's catalog is warmed by one
// untimed run.
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
					res, err := SimulateMix(cfg, mix)
					if err != nil {
						b.Fatal(err)
					}
					if res.Completed+res.Dropped != jobs {
						b.Fatalf("lost jobs: %d+%d of %d", res.Completed, res.Dropped, jobs)
					}
				}
			}
			run() // warm the catalogs
			report := countWork(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.StopTimer()
			report()
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
