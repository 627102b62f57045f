package sched

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// smallMix returns a quick job mix (light benchmarks only) for the
// simulator tests.
func smallMix(n int, seed uint64) []Job {
	jobs := SyntheticJobMix(n, 60, seed)
	// Keep the mix as generated — the catalog caches measurements, so
	// repeated benchmarks cost one solver run each.
	return jobs
}

func simCfg(policy Policy, budget float64, cat *Catalog) SimConfig {
	return SimConfig{
		ClusterNodes: 8,
		BudgetW:      budget,
		IdleNodeW:    460,
		Policy:       policy,
		Catalog:      cat,
	}
}

func TestSimulateCompletesAllJobs(t *testing.T) {
	cat := NewCatalog(1)
	jobs := smallMix(12, 3)
	res, err := Simulate(simCfg(NoCap{NodeTDP: 2350}, 0, cat), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(jobs) {
		t.Fatalf("completed %d of %d", res.Completed, len(jobs))
	}
	if res.Makespan <= 0 || res.TotalEnergyJ <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	for _, o := range res.Outcomes() {
		if o.End <= o.Start || o.Wait < 0 {
			t.Fatalf("bad outcome: %+v", o)
		}
	}
}

func TestBudgetConstrainsPeakPower(t *testing.T) {
	cat := NewCatalog(1)
	jobs := smallMix(10, 5)
	budget := 8 * 1200.0 // well under 8 × TDP
	res, err := Simulate(simCfg(NoCap{NodeTDP: 2350}, budget, cat), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakPowerW > budget+1e-6 {
		t.Fatalf("budget violated: peak %v > %v", res.PeakPowerW, budget)
	}
}

func TestProfileAwareBeatsNoCapUnderBudget(t *testing.T) {
	// The paper's §VI argument: under a tight facility budget,
	// profile-based caps let more jobs run concurrently, improving
	// throughput/makespan at a small performance cost.
	catA := NewCatalog(1)
	catB := NewCatalog(1)
	jobs := smallMix(16, 9)
	budget := 8 * 1100.0
	noCap, err := Simulate(simCfg(NoCap{NodeTDP: 2350}, budget, catA), jobs)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Simulate(simCfg(DefaultProfileAware(), budget, catB), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if aware.Makespan >= noCap.Makespan {
		t.Fatalf("profile-aware makespan %v not better than nocap %v under budget",
			aware.Makespan, noCap.Makespan)
	}
	if aware.MeanWait >= noCap.MeanWait {
		t.Fatalf("profile-aware wait %v not better than nocap %v", aware.MeanWait, noCap.MeanWait)
	}
	// Performance cost of capping stays below 10% on average (§V-C).
	if aware.MeanPerfLoss > 0.10 {
		t.Fatalf("mean perf loss %v exceeds 10%%", aware.MeanPerfLoss)
	}
	if noCap.MeanPerfLoss != 0 {
		t.Fatalf("nocap should have zero perf loss, got %v", noCap.MeanPerfLoss)
	}
}

func TestSimulateValidation(t *testing.T) {
	cat := NewCatalog(1)
	jobs := smallMix(2, 1)
	if _, err := Simulate(SimConfig{ClusterNodes: 0, Policy: NoCap{}, Catalog: cat}, jobs); err == nil {
		t.Fatal("zero cluster accepted")
	}
	if _, err := Simulate(SimConfig{ClusterNodes: 4, Catalog: cat}, jobs); err == nil {
		t.Fatal("missing policy accepted")
	}
	if _, err := Simulate(SimConfig{ClusterNodes: 4, Policy: NoCap{}}, jobs); err == nil {
		t.Fatal("missing catalog accepted")
	}
	big := jobs[:1]
	big[0].Nodes = 99
	if _, err := Simulate(simCfg(NoCap{NodeTDP: 2350}, 0, cat), big); err == nil {
		t.Fatal("oversized job accepted")
	}

	// A NaN or negative base budget or idle draw fails like a bad
	// budget phase, instead of running unconstrained.
	jobs = smallMix(2, 1)
	for _, tc := range []struct {
		name         string
		budget, idle float64
		frag         string
	}{
		{"NaN budget", math.NaN(), 460, "invalid budget NaN"},
		{"negative budget", -1, 460, "invalid budget -1"},
		{"NaN idle", 0, math.NaN(), "invalid idle node power NaN"},
		{"negative idle", 0, -460, "invalid idle node power -460"},
	} {
		cfg := simCfg(NoCap{NodeTDP: 2350}, tc.budget, cat)
		cfg.IdleNodeW = tc.idle
		if _, err := Simulate(cfg, jobs); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Fatalf("%s: got %v, want an error with %q", tc.name, err, tc.frag)
		}
		if _, err := SimulateMix(cfg, NewSyntheticMix(2, 60, 1)); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Fatalf("%s (table): got %v, want an error with %q", tc.name, err, tc.frag)
		}
	}

	// A budget below the 8 × 460 W idle reservation fails the fit test
	// for every job, so it is rejected before the run, naming the budget
	// and the reservation; so is an envelope whose every phase is below
	// it. An envelope that starts below the reservation and later rises
	// above it runs, its jobs waiting for the rise.
	below := simCfg(NoCap{NodeTDP: 2350}, 8*460-100, fakeCatalog(1))
	const frag = "budget 3580 W is below the idle reservation of 3680 W (8 nodes × 460 W)"
	if _, err := Simulate(below, jobs); err == nil || !strings.Contains(err.Error(), frag) {
		t.Fatalf("below-idle budget: got %v, want an error with %q", err, frag)
	}
	if _, err := SimulateMix(below, NewSyntheticMix(2, 60, 1)); err == nil || !strings.Contains(err.Error(), frag) {
		t.Fatalf("below-idle budget (table): got %v, want an error with %q", err, frag)
	}
	allBelow := below
	allBelow.BudgetSchedule = []BudgetPhase{{Start: 600, BudgetW: 8 * 400}}
	if _, err := Simulate(allBelow, jobs); err == nil || !strings.Contains(err.Error(), frag) {
		t.Fatalf("below-idle envelope: got %v", err)
	}
	rising := simCfg(NoCap{NodeTDP: 2350}, 0, fakeCatalog(1))
	rising.BudgetSchedule = []BudgetPhase{{Start: 0, BudgetW: 8*460 - 100}, {Start: 600, BudgetW: 8 * 2350}}
	res, err := Simulate(rising, jobs)
	if err != nil {
		t.Fatalf("envelope rising above the idle reservation: %v", err)
	}
	if res.Completed != len(jobs) {
		t.Fatalf("envelope rising above the idle reservation completed %d of %d jobs", res.Completed, len(jobs))
	}
	for _, o := range res.Outcomes() {
		if o.Start < 600 {
			t.Fatalf("job %s started at %v, under the below-idle phase", o.ID, o.Start)
		}
	}

	// A non-finite arrival is an error on both paths, not an event the
	// engine cannot schedule: a NaN mean draws NaN arrivals, and a huge
	// one overflows the arrival sum to +Inf.
	nan := smallMix(2, 1)
	nan[1].Arrival = math.NaN()
	if _, err := Simulate(simCfg(NoCap{NodeTDP: 2350}, 0, cat), nan); err == nil || !strings.Contains(err.Error(), "non-finite arrival") {
		t.Fatalf("NaN arrival: got %v", err)
	}
	for _, mean := range []float64{math.NaN(), 1e308} {
		_, err := SimulateMix(simCfg(NoCap{NodeTDP: 2350}, 0, fakeCatalog(1)), NewSyntheticMix(50, mean, 1))
		if err == nil || !strings.Contains(err.Error(), "non-finite arrival") {
			t.Fatalf("mean inter-arrival %v: got %v", mean, err)
		}
	}
	// A mix's own check rejects exactly what its simulation would, with
	// the same error, before anything runs.
	for _, mean := range []float64{math.NaN(), 1e308, math.Inf(1), -5, 0, 90} {
		mix := NewSyntheticMix(50, mean, 1)
		_, simErr := SimulateMix(simCfg(NoCap{NodeTDP: 2350}, 0, fakeCatalog(1)), mix)
		if err := mix.Validate(); fmt.Sprint(err) != fmt.Sprint(simErr) {
			t.Fatalf("mean inter-arrival %v: Validate %v, simulation %v", mean, err, simErr)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	jobs := smallMix(8, 11)
	a, err := Simulate(simCfg(DefaultProfileAware(), 0, NewCatalog(2)), jobs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(simCfg(DefaultProfileAware(), 0, NewCatalog(2)), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.TotalEnergyJ != b.TotalEnergyJ {
		t.Fatal("simulation not deterministic")
	}
}

func TestWaitAccounting(t *testing.T) {
	// Two identical single-node jobs on a one-node cluster: the second
	// must wait for the first.
	cat := NewCatalog(1)
	jobs := smallMix(6, 13)
	for i := range jobs {
		jobs[i].Nodes = 1
		jobs[i].Arrival = 0
	}
	cfg := simCfg(NoCap{NodeTDP: 2350}, 0, cat)
	cfg.ClusterNodes = 1
	res, err := Simulate(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxWait <= 0 {
		t.Fatal("serialized jobs should wait")
	}
	if res.Completed != len(jobs) {
		t.Fatalf("completed %d", res.Completed)
	}
}

func TestTimelinesAndUtilization(t *testing.T) {
	cat := NewCatalog(1)
	jobs := smallMix(8, 21)
	const idleW = 460
	res, err := Simulate(simCfg(NoCap{NodeTDP: 2350}, 0, cat), jobs)
	if err != nil {
		t.Fatal(err)
	}
	reserved, actual := res.Timelines(idleW)
	if reserved.Duration() <= 0 || actual.Duration() != reserved.Duration() {
		t.Fatalf("timeline durations: %v vs %v", reserved.Duration(), actual.Duration())
	}
	// Reservations dominate actual draw at every instant under NoCap
	// (TDP per node vs real usage).
	for x := 0.0; x < reserved.Duration(); x += reserved.Duration() / 50 {
		if actual.PowerAt(x) > reserved.PowerAt(x)+1e-6 {
			t.Fatalf("actual draw above reservation at t=%v", x)
		}
	}
	// The floor of both is the idle cluster.
	for _, seg := range reserved.Segments() {
		if seg.Power < float64(res.ClusterNodes)*idleW-1e-6 {
			t.Fatal("reserved timeline below idle floor")
		}
	}
	util := res.BudgetUtilization(idleW)
	if util <= 0 || util >= 1 {
		t.Fatalf("NoCap budget utilization %v, want in (0,1)", util)
	}
	// Profile-aware reservations are much tighter.
	aware, err := Simulate(simCfg(DefaultProfileAware(), 0, NewCatalog(1)), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if au := aware.BudgetUtilization(idleW); au <= util {
		t.Fatalf("profile-aware utilization %v not better than nocap %v", au, util)
	}
}
