// Command pmsched runs the power-aware scheduling simulation of the
// paper's §VI proposal: a batch queue of VASP jobs packed under a
// facility power budget, with per-class GPU power caps chosen from
// measured profiles, compared against no capping and a uniform cap.
//
// Usage:
//
//	pmsched [-nodes 8] [-budget-kw 8.8] [-jobs 24] [-arrival 90] [-seed 2024]
//	        [-preset facility] [-envelope T:KW,T:KW,...] [-manifest PATH]
//	        [-cache-dir DIR] [-cache-max-bytes N]
//
// -preset facility selects the Perlmutter-like GPU partition scale —
// 1,800 nodes, 100k jobs, 5 s mean inter-arrival, 2 MW budget — for
// any of -nodes/-jobs/-arrival/-budget-kw not given explicitly. The
// mix is drawn once into a compact table (16 bytes a job, the IDs in
// one buffer) that the three policies share, each through its own
// cursor; the simulator reads it in arrival order without building a
// Job per draw. The three policies are simulated concurrently; their
// rows print in a fixed order.
//
// -envelope imposes a time-varying facility power envelope on top of
// the base budget: a comma-separated list of start:budget-kW phases
// (e.g. "3600:1500,7200:2000" drops the budget to 1.5 MW after one
// hour and restores 2 MW after two). Budget 0 means unconstrained
// from that point on.
//
// The profile catalog's measurements run through the run's two-tier
// result cache (experiments.Env). Before the simulations start, every profile
// the mix can need — each drawn (benchmark, nodes) at the baseline and
// at each cap the policies give its class — is measured into that
// cache, one cap group per configuration, in parallel; the policies'
// catalogs then answer every lookup from memory. With -cache-dir set,
// repeated scheduler studies (budget sweeps, policy comparisons) reuse
// each other's measured profiles instead of re-simulating them. With
// -manifest set, the run writes a provenance manifest including the
// sched.* metrics (packing passes, starts, drops, head-of-line stalls,
// peak reserved power).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"vasppower"
	"vasppower/internal/core"
	"vasppower/internal/experiments"
	"vasppower/internal/hw/platform"
	"vasppower/internal/obs"
	"vasppower/internal/par"
	"vasppower/internal/report"
	"vasppower/internal/sched"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the whole command: it parses args, simulates the three
// policies and prints their table to stdout, and returns the exit
// status (0 ok, 1 run failure, 2 usage error). The run's metrics go to
// reg when it is not nil, as they go to -manifest's own registry.
func run(args []string, stdout, stderr io.Writer, reg *obs.Registry) int {
	fs := flag.NewFlagSet("pmsched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.Int("nodes", 8, "cluster size (GPU nodes)")
	budgetKW := fs.Float64("budget-kw", 8.8, "facility power budget for the partition, kW (0 = unconstrained)")
	jobsN := fs.Int("jobs", 24, "number of jobs in the mix")
	arrival := fs.Float64("arrival", 90, "mean inter-arrival time, seconds")
	seed := fs.Uint64("seed", 2024, "random seed")
	preset := fs.String("preset", "", "scale preset: 'facility' = 1800 nodes, 100k jobs, 5 s arrivals, 2 MW budget (explicit flags win)")
	envelope := fs.String("envelope", "", "time-varying budget phases as start-seconds:budget-kW, comma-separated")
	manifestPath := fs.String("manifest", "", "write a run manifest (provenance + sched.* metrics) to this path")
	cacheDir := fs.String("cache-dir", "", "persistent measurement-cache directory (empty = in-memory only)")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 1<<30, "persistent cache size bound in bytes, LRU-evicted (0 = unbounded)")
	version := fs.Bool("version", false, "print module version, VCS revision, and dirty flag, then exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *version {
		fmt.Fprintln(stdout, obs.VersionString("pmsched"))
		return 0
	}
	if err := applyPreset(fs, *preset, nodes, budgetKW, jobsN, arrival); err != nil {
		fmt.Fprintln(stderr, "pmsched:", err)
		return 2
	}
	if *jobsN < 0 {
		fmt.Fprintf(stderr, "pmsched: -jobs %d must be >= 0\n", *jobsN)
		return 2
	}
	schedule, err := parseEnvelope(*envelope)
	if err != nil {
		fmt.Fprintln(stderr, "pmsched:", err)
		return 2
	}
	if reg == nil && *manifestPath != "" {
		reg = obs.NewRegistry()
	}
	if reg != nil {
		// The Env points the engine's process-wide metric hooks at reg;
		// detach them on return, so a later run in the same process
		// (the tests) does not count into this run's registry.
		defer experiments.Instrument(nil)
	}
	env, err := experiments.NewEnv(experiments.EnvOptions{
		Obs: &obs.Obs{Metrics: reg}, CacheDir: *cacheDir, CacheMaxBytes: *cacheMaxBytes,
	})
	if err != nil {
		fmt.Fprintln(stderr, "pmsched:", err)
		return 2
	}
	started := time.Now()

	policies := []vasppower.SchedulerPolicy{
		vasppower.PolicyNoCap,
		vasppower.PolicyUniform200,
		vasppower.PolicyProfileAware,
	}
	// Each policy's configuration is checked before anything is
	// measured, so a run the simulator would reject exits at once.
	cfgs := make([]vasppower.SchedulerConfig, len(policies))
	for i, pol := range policies {
		cat := vasppower.NewSchedulerCatalog(*seed)
		cat.SetMeasure(env.Measure)
		cfgs[i] = vasppower.SchedulerConfig{
			ClusterNodes:   *nodes,
			BudgetW:        *budgetKW * 1000,
			BudgetSchedule: schedule,
			IdleNodeW:      460,
			Policy:         pol,
			Catalog:        cat,
		}
		if err := cfgs[i].Validate(); err != nil {
			fmt.Fprintln(stderr, "pmsched:", err)
			return 1
		}
	}

	fmt.Fprintf(stdout, "job mix: %d VASP jobs over ~%.0f s of arrivals on %d nodes, budget %.1f kW\n",
		*jobsN, float64(*jobsN)*(*arrival), *nodes, *budgetKW)
	if len(schedule) > 0 {
		fmt.Fprintf(stdout, "envelope: %d budget phases (first at t=%.0f s)\n", len(schedule), schedule[0].Start)
	}
	fmt.Fprintln(stdout)

	// One mix for all three policies, and its profiles measured before
	// any simulation starts.
	mix := sched.NewSyntheticMix(*jobsN, *arrival, *seed)
	prefetch(env, mix, policies, *nodes, *seed)
	// The policies are independent simulations, so they run at once,
	// one worker each, each with its own cursor over the shared mix and
	// its own catalog. The catalogs measure through the run's Env,
	// whose cache prefetch has filled (and later invocations reuse,
	// with -cache-dir). Each worker keeps only its table row, not the
	// per-job outcomes.
	type row struct {
		cells      []string
		droppedIDs []string
	}
	rows := make([]row, len(policies))
	err = par.ForEach(context.Background(), len(policies), len(policies),
		func(_ context.Context, i int) error {
			res, err := vasppower.SimulateSchedulerStream(cfgs[i], mix.Stream())
			if err != nil {
				return err
			}
			r := &rows[i]
			r.cells = []string{
				res.Policy,
				report.Seconds(res.Makespan),
				report.Seconds(res.MeanWait),
				report.Seconds(res.MaxWait),
				fmt.Sprintf("%.1f kW", res.PeakPowerW/1000),
				fmt.Sprintf("%.1f MJ", res.TotalEnergyJ/1e6),
				report.Percent(res.MeanPerfLoss),
				fmt.Sprintf("%.1f jobs/h", res.Throughput),
				fmt.Sprintf("%d", res.Dropped),
			}
			if res.Dropped > 0 {
				r.droppedIDs = res.DroppedIDs
			}
			return nil
		})
	if err != nil {
		fmt.Fprintln(stderr, "pmsched:", err)
		return 1
	}

	t := report.NewTable("policy", "makespan", "mean wait", "max wait",
		"peak power", "energy", "mean perf loss", "throughput", "dropped")
	var droppedIDs []string
	for _, r := range rows {
		t.AddRow(r.cells...)
		if droppedIDs == nil {
			droppedIDs = r.droppedIDs
		}
	}
	fmt.Fprintln(stdout, t.String())
	if droppedIDs != nil {
		const show = 8
		ids := droppedIDs
		if len(ids) > show {
			ids = ids[:show]
		}
		fmt.Fprintf(stdout, "warning: jobs dropped (unprofilable configuration): %s", strings.Join(ids, ", "))
		if len(droppedIDs) > show {
			fmt.Fprintf(stdout, ", … (%d total)", len(droppedIDs))
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintln(stdout, "profile-aware capping reserves measured power instead of TDP, so more jobs")
	fmt.Fprintln(stdout, "fit under the budget at a per-job cost the study bounds below 10% (§V-C).")
	env.Flush()

	if *manifestPath != "" {
		snap := reg.Snapshot()
		err := obs.Manifest{
			Tool:        "pmsched",
			Build:       obs.GetBuildInfo(),
			Platform:    platform.DefaultName,
			Seed:        *seed,
			Workers:     len(policies),
			Started:     started.UTC(),
			WallSeconds: time.Since(started).Seconds(),
			Metrics:     &snap,
		}.Write(*manifestPath)
		if err != nil {
			fmt.Fprintln(stderr, "pmsched:", err)
			return 1
		}
		fmt.Fprintf(stderr, "pmsched: run manifest written to %s\n", *manifestPath)
	}
	return 0
}

// prefetch measures, before the clock starts, every profile the
// policies' catalogs can ask for: for each (benchmark, nodes) the mix
// drew that fits the cluster, the baseline and each distinct binding
// cap the policies give its class, as one cap group (one resolution
// phase, one solve per cap) per configuration, the configurations
// spread over the CPUs. The profiles land in env's cache under the
// keys the catalogs look up, bit-identical to what the catalogs would
// measure themselves. An error is dropped: the catalog
// meets it again lazily and drops the configuration's jobs, as it
// would without prefetch.
func prefetch(env *experiments.Env, mix *sched.SyntheticMix, policies []vasppower.SchedulerPolicy, clusterNodes int, seed uint64) {
	pairs := mix.Pairs()
	p := platform.Default()
	_ = par.ForEach(context.Background(), runtime.GOMAXPROCS(0), len(pairs),
		func(_ context.Context, i int) error {
			pair := pairs[i]
			if pair.Nodes > clusterNodes {
				return nil // the simulation rejects the job before profiling it
			}
			caps := []float64{0}
			for _, pol := range policies {
				c := pol.Cap(sched.Classify(pair.Bench.Method))
				if c > 0 && c < p.GPU.TDP && !slices.Contains(caps, c) {
					caps = append(caps, c)
				}
			}
			_, _ = env.MeasureGroup(core.MeasureSpec{
				Bench: pair.Bench, Platform: p, Nodes: pair.Nodes, Seed: seed,
			}, caps)
			return nil
		})
}

// applyPreset overwrites scale parameters the user did not set
// explicitly with the preset's values (explicit flags always win).
func applyPreset(fs *flag.FlagSet, name string, nodes *int, budgetKW *float64, jobsN *int, arrival *float64) error {
	switch name {
	case "":
		return nil
	case "facility":
	default:
		return fmt.Errorf("unknown preset %q (have: facility)", name)
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set["nodes"] {
		*nodes = 1800
	}
	if !set["budget-kw"] {
		*budgetKW = 2000
	}
	if !set["jobs"] {
		*jobsN = 100000
	}
	if !set["arrival"] {
		*arrival = 5
	}
	return nil
}

// parseEnvelope parses "start:budget-kW,start:budget-kW,..." into a
// budget schedule (watts), e.g. "3600:1500,7200:0".
func parseEnvelope(s string) ([]vasppower.SchedulerBudgetPhase, error) {
	if s == "" {
		return nil, nil
	}
	var phases []vasppower.SchedulerBudgetPhase
	for _, part := range strings.Split(s, ",") {
		at, kw, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("envelope phase %q: want start-seconds:budget-kW", part)
		}
		start, err := strconv.ParseFloat(at, 64)
		if err != nil {
			return nil, fmt.Errorf("envelope phase %q: %v", part, err)
		}
		budget, err := strconv.ParseFloat(kw, 64)
		if err != nil {
			return nil, fmt.Errorf("envelope phase %q: %v", part, err)
		}
		phases = append(phases, vasppower.SchedulerBudgetPhase{Start: start, BudgetW: budget * 1000})
	}
	return phases, nil
}
