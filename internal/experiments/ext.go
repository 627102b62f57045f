package experiments

import (
	"context"
	"fmt"
	"strings"

	"vasppower/internal/core"
	"vasppower/internal/par"
	"vasppower/internal/report"
	"vasppower/internal/sched"
	"vasppower/internal/stats"
	"vasppower/internal/workloads"
)

// ExtSchedulerResult is the §VI extension study: the proposed
// profile-aware power capping deployed in a batch scheduler, compared
// against no capping and a uniform cap, under a facility power
// budget.
type ExtSchedulerResult struct {
	ClusterNodes int
	BudgetW      float64
	Jobs         int
	Results      []sched.Result
}

// RunExtScheduler simulates the three policies over one job mix.
func RunExtScheduler(cfg Config) (ExtSchedulerResult, error) {
	nodes := 8
	jobsN := 24
	if cfg.Quick {
		jobsN = 8
	}
	budget := float64(nodes) * 1100
	res := ExtSchedulerResult{ClusterNodes: nodes, BudgetW: budget, Jobs: jobsN}
	jobs := sched.SyntheticJobMix(jobsN, 90, cfg.seed())
	policies := []sched.Policy{
		sched.NoCap{NodeTDP: 2350},
		sched.UniformCap{Watts: 200, HostWatts: 350},
		sched.DefaultProfileAware(),
	}
	// Simulate copies the job list and each policy gets its own
	// catalog, so the three policies run concurrently. Every catalog
	// measures through cfg's Env, so with one given a spec is measured
	// once across the policies and the other runners. The catalog leaves
	// Nodes and Repeats zero for core.Measure's defaults of 1, which
	// must be applied before keying to hit the runners' entries.
	catMeasure := func(spec core.MeasureSpec) (core.JobProfile, error) {
		return measure(cfg, spec.Bench, max(spec.Nodes, 1), max(spec.Repeats, 1), spec.CapW)
	}
	results := make([]sched.Result, len(policies))
	err := par.ForEach(context.Background(), cfg.workers(), len(policies),
		func(_ context.Context, i int) error {
			cat := sched.NewCatalogOn(cfg.platform(), cfg.seed())
			cat.SetMeasure(catMeasure)
			r, err := sched.Simulate(sched.SimConfig{
				ClusterNodes: nodes,
				BudgetW:      budget,
				IdleNodeW:    460,
				Policy:       policies[i],
				Catalog:      cat,
			}, jobs)
			if err != nil {
				return err
			}
			results[i] = r
			return nil
		})
	if err != nil {
		return res, err
	}
	res.Results = results
	return res, nil
}

// Render draws the policy comparison.
func (r ExtSchedulerResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension A — power-aware scheduling ablation (%d nodes, %.0f kW budget, %d jobs)\n\n",
		r.ClusterNodes, r.BudgetW/1000, r.Jobs)
	t := report.NewTable("policy", "makespan", "mean wait", "peak power", "energy", "mean perf loss", "throughput", "budget util.")
	for _, res := range r.Results {
		t.AddRow(
			res.Policy,
			report.Seconds(res.Makespan),
			report.Seconds(res.MeanWait),
			fmt.Sprintf("%.1f kW", res.PeakPowerW/1000),
			fmt.Sprintf("%.1f MJ", res.TotalEnergyJ/1e6),
			report.Percent(res.MeanPerfLoss),
			fmt.Sprintf("%.1f jobs/h", res.Throughput),
			report.Percent(res.BudgetUtilization(460)),
		)
	}
	sb.WriteString(t.String())
	sb.WriteString("\ncluster power over the schedule (reserved vs actually drawn):\n")
	for _, res := range r.Results {
		reserved, actual := res.Timelines(460)
		sb.WriteString(report.SeriesLine(res.Policy+" rsv", reserved.Sample(reserved.Duration()/64), 64) + "\n")
		sb.WriteString(report.SeriesLine(res.Policy+" act", actual.Sample(actual.Duration()/64), 64) + "\n")
	}
	sb.WriteString("(profile-aware capping packs more jobs under the budget at <10% per-job cost;\nits reservations track real draw instead of face-value TDP)\n")
	return sb.String()
}

// ExtRepeatsResult is the protocol ablation (§III-B.1): what the
// five-repeat / minimum-runtime selection buys over a single run.
type ExtRepeatsResult struct {
	Bench       string
	Runtimes    []float64
	BestRuntime float64
	MeanRuntime float64
	SpreadPct   float64 // (max−min)/min
	ModePerRun  []float64
	ModeSpreadW float64
}

// RunExtRepeats runs the protocol study.
func RunExtRepeats(cfg Config) (ExtRepeatsResult, error) {
	bench, _ := workloads.ByName("GaAsBi-64")
	res := ExtRepeatsResult{Bench: bench.Name}
	repeats := 5
	if cfg.Quick {
		repeats = 3
	}
	// Run each repeat separately so per-repeat power modes can be
	// compared (the protocol's premise: runtime varies, power modes
	// don't). Each repeat has its own seed, so they fan out freely;
	// none goes through the cache, as the study is of running again.
	env := cfg.env()
	type rep struct {
		runtime float64
		mode    float64
		hasMode bool
	}
	reps := make([]rep, repeats)
	err := par.ForEach(context.Background(), cfg.workers(), repeats,
		func(_ context.Context, i int) error {
			spec := cfg.spec(bench, 1, 1)
			spec.Seed = cfg.seed() + uint64(i)*7919
			jp, err := env.compute(core.MeasureIn, spec)
			if err != nil {
				return err
			}
			reps[i].runtime = jp.Runtime
			if hm, ok := jp.NodeTotal.HighMode(); ok {
				reps[i].mode = hm.X
				reps[i].hasMode = true
			}
			return nil
		})
	if err != nil {
		return res, err
	}
	for _, r := range reps {
		res.Runtimes = append(res.Runtimes, r.runtime)
		if r.hasMode {
			res.ModePerRun = append(res.ModePerRun, r.mode)
		}
	}
	sum, _ := stats.Describe(res.Runtimes)
	res.BestRuntime = sum.Min
	res.MeanRuntime = sum.Mean
	if sum.Min > 0 {
		res.SpreadPct = (sum.Max - sum.Min) / sum.Min * 100
	}
	if len(res.ModePerRun) > 1 {
		ms, _ := stats.Describe(res.ModePerRun)
		res.ModeSpreadW = ms.Max - ms.Min
	}
	return res, nil
}

// Render draws the protocol study.
func (r ExtRepeatsResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension B — five-repeat protocol (%s, 1 node)\n\n", r.Bench)
	t := report.NewTable("repeat", "runtime", "node high mode")
	for i, rt := range r.Runtimes {
		mode := "-"
		if i < len(r.ModePerRun) {
			mode = fmt.Sprintf("%.0f W", r.ModePerRun[i])
		}
		t.AddRow(fmt.Sprintf("%d", i+1), report.Seconds(rt), mode)
	}
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "\nbest %.1f s, mean %.1f s, runtime spread %.1f%%, mode spread %.0f W\n",
		r.BestRuntime, r.MeanRuntime, r.SpreadPct, r.ModeSpreadW)
	sb.WriteString("(runtimes jitter run to run; the power mode is stable — hence min-runtime selection)\n")
	return sb.String()
}
