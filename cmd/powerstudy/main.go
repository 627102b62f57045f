// Command powerstudy regenerates every table and figure of the paper
// from the simulation, printing each as terminal text and optionally
// exporting the underlying data as CSV (the artifact bundle).
//
// Usage:
//
//	powerstudy [-quick] [-platform NAME] [-seed N] [-repeats N] [-parallel N] [-only table1,fig3,...] [-artifact DIR]
//	           [-cache-dir DIR] [-cache-max-bytes N]
//	           [-trace FILE] [-manifest FILE] [-debug-addr ADDR] [-version]
//
// Experiment names: table1, fig1..fig13, exta (scheduler ablation),
// extb (repeat protocol), extc (DVFS vs capping), extd (power
// prediction), exte (MILC, the second application), extf (top-down
// signature clustering), extg (metric ablation).
//
// -platform selects the hardware platform measurements run on. The
// default, perlmutter-a100, is the machine the paper measured; every
// other registered platform is a shape-faithful extrapolation.
//
// -parallel N runs the experiment list (and each experiment's internal
// sweeps) through a worker pool of N goroutines (0 = one per CPU,
// 1 = serial). Results are identical for every value: all randomness
// is seed-derived, never order-derived, and output stays in experiment
// order.
//
// -cache-dir DIR enables the persistent measurement cache: every
// MeasureSpec result is stored content-addressed, checksummed, and
// atomically written under DIR, so a second run of the same sweep
// serves its measurements from disk instead of re-simulating — a warm
// -quick run skips essentially all simulation and its stdout stays
// byte-identical to the cold run that populated the cache. Entries are
// written when the run finishes, with the KDE modes the run computed;
// a run killed before then leaves none.
// -cache-max-bytes bounds the directory (LRU eviction; 0 = unbounded).
// The cache never touches stdout either.
//
// The observability flags never touch stdout, so the byte-identical
// golden output holds with or without them: -trace FILE appends one
// JSON line per span (each experiment, each measurement) to FILE,
// -manifest FILE writes a self-describing run record (build info,
// platform, knobs, per-experiment wall time, metrics snapshot) at
// exit, and -debug-addr ADDR serves net/http/pprof plus a JSON
// metrics dump for live inspection of long sweeps.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"vasppower/internal/artifact"
	"vasppower/internal/experiments"
	"vasppower/internal/hw/platform"
	"vasppower/internal/obs"
	"vasppower/internal/par"
	"vasppower/internal/serve"
	"vasppower/internal/telemetry"
	"vasppower/internal/telemetry/promexp"
)

type result interface {
	Render() string
	CSV() artifact.Table
}

// unit is one independently-runnable entry of the experiment list and,
// once done is closed, its contribution, printed strictly in list
// order regardless of completion order.
type unit struct {
	name    string
	run     func() (string, []artifact.Table, error)
	done    chan struct{}
	text    string
	tables  []artifact.Table
	err     error
	seconds float64
}

func main() {
	quick := flag.Bool("quick", false, "trimmed sweeps and single repeats (seconds instead of minutes)")
	platName := flag.String("platform", "",
		fmt.Sprintf("hardware platform to run on (default %s; registered: %s)",
			platform.DefaultName, strings.Join(platform.List(), ", ")))
	seed := flag.Uint64("seed", 2024, "root random seed")
	repeats := flag.Int("repeats", 0, "repeats per measurement (0 = paper default of 5, or 1 in quick mode)")
	parallel := flag.Int("parallel", 0, "worker pool size for experiments and their sweeps (0 = one per CPU, 1 = serial)")
	only := flag.String("only", "", "comma-separated experiment list (default: all)")
	artifactDir := flag.String("artifact", "", "directory for CSV data exports (empty = no export)")
	cacheDir := flag.String("cache-dir", "", "persistent measurement-cache directory (empty = in-memory only)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 1<<30, "persistent cache size bound in bytes, LRU-evicted (0 = unbounded)")
	tracePath := flag.String("trace", "", "append spans as JSON lines to this file (empty = no tracing)")
	manifestPath := flag.String("manifest", "", "write a self-describing run manifest (JSON) to this file at exit")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof and /debug/vars on this address (e.g. localhost:6060)")
	telemetryAddr := flag.String("telemetry-addr", "",
		"stream per-host per-domain power samples and serve them as Prometheus text at /metrics on this address (e.g. localhost:9100)")
	hold := flag.Duration("hold", 0,
		"keep the /metrics endpoint serving after the run completes: a duration, or negative (e.g. -1s) to serve until SIGINT/SIGTERM (a signal always ends the hold early)")
	version := flag.Bool("version", false, "print module version, VCS revision, and dirty flag, then exit")
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionString("powerstudy"))
		return
	}
	if *platName != "" {
		if _, err := platform.Get(*platName); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	cfg := experiments.Config{
		Platform: *platName, Seed: *seed, Repeats: *repeats,
		Quick: *quick, Workers: *parallel,
	}

	// Observability: any of the four flags turns the recorder on; all
	// off leaves every hot path on its nil no-op default.
	var o *obs.Obs
	var hub *telemetry.Hub
	if *tracePath != "" || *manifestPath != "" || *debugAddr != "" || *telemetryAddr != "" {
		o = obs.New()
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "powerstudy: trace:", err)
				os.Exit(2)
			}
			defer f.Close()
			o.Tracer = obs.NewTracer(f)
		}
		var ds *obs.DebugServer
		if *debugAddr != "" {
			srv, err := obs.ServeDebug(*debugAddr, o.Metrics)
			if err != nil {
				fmt.Fprintln(os.Stderr, "powerstudy:", err)
				os.Exit(2)
			}
			ds = srv
			defer ds.Close()
			fmt.Fprintf(os.Stderr, "powerstudy: debug endpoint on http://%s (pprof, /debug/vars)\n", ds.Addr)
		}
		if *telemetryAddr != "" {
			hub = telemetry.NewHub(telemetry.NewMetrics(o.Metrics))
			col, err := promexp.NewCollector(hub, o.Metrics, 1<<16)
			if err != nil {
				fmt.Fprintln(os.Stderr, "powerstudy:", err)
				os.Exit(2)
			}
			defer col.Close()
			// Reuse the debug server when both flags name the same
			// address; otherwise the telemetry endpoint gets its own.
			tds := ds
			if tds == nil || *telemetryAddr != *debugAddr {
				srv, err := obs.ServeDebug(*telemetryAddr, o.Metrics)
				if err != nil {
					fmt.Fprintln(os.Stderr, "powerstudy:", err)
					os.Exit(2)
				}
				tds = srv
				defer tds.Close()
			}
			tds.Handle("/metrics", col)
			fmt.Fprintf(os.Stderr, "powerstudy: telemetry endpoint on http://%s/metrics\n", tds.Addr)
			defer serve.Hold(os.Stderr, "powerstudy", *hold)
		}
	}

	env, err := experiments.NewEnv(experiments.EnvOptions{
		Obs: o, Hub: hub, CacheDir: *cacheDir, CacheMaxBytes: *cacheMaxBytes,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "powerstudy:", err)
		os.Exit(2)
	}
	if st := env.Store(); st != nil {
		// No entry count: counting lists the directory, which a run
		// that only reads never needs to.
		fmt.Fprintf(os.Stderr, "powerstudy: persistent measurement cache at %s\n", st.Dir())
	}
	cfg.Env = env

	started := time.Now()
	timings, err := run(cfg, *only, *artifactDir, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Before the manifest, so its diskcache counters hold the writes.
	env.Flush()
	if *manifestPath != "" {
		if err := writeManifest(*manifestPath, cfg, started, timings); err != nil {
			fmt.Fprintln(os.Stderr, "powerstudy:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "powerstudy: run manifest written to %s\n", *manifestPath)
	}
}

// platformName resolves the platform label recorded in spans and the
// manifest.
func platformName(cfg experiments.Config) string {
	if cfg.Platform != "" {
		return cfg.Platform
	}
	return platform.DefaultName
}

// writeManifest captures the run the way the paper's OMNI job records
// capture a batch job: provenance, configuration, per-experiment wall
// time, and the final metrics snapshot.
func writeManifest(path string, cfg experiments.Config, started time.Time, timings []obs.ExperimentTiming) error {
	var snap *obs.Snapshot
	if reg := cfg.Env.Obs().Reg(); reg != nil {
		s := reg.Snapshot()
		snap = &s
	}
	return obs.Manifest{
		Tool:        "powerstudy",
		Build:       obs.GetBuildInfo(),
		Platform:    platformName(cfg),
		Seed:        cfg.Seed,
		Workers:     par.Workers(cfg.Workers),
		Quick:       cfg.Quick,
		Started:     started.UTC(),
		WallSeconds: time.Since(started).Seconds(),
		Experiments: timings,
		Metrics:     snap,
	}.Write(path)
}

// run executes the selected experiments against cfg and writes their
// rendered output to w in list order, returning each experiment's wall
// time for the manifest. It is the whole CLI behind flag parsing, so
// tests can drive it directly.
func run(cfg experiments.Config, only, artifactDir string, w io.Writer) ([]obs.ExperimentTiming, error) {
	selected := map[string]bool{}
	if only != "" {
		for _, name := range strings.Split(only, ",") {
			selected[strings.TrimSpace(strings.ToLower(name))] = true
		}
	}
	want := func(name string) bool { return len(selected) == 0 || selected[name] }

	exportCSV := artifactDir != ""
	sep := strings.Repeat("=", 78)
	var units []unit
	// emit wraps one experiment in the standard format: separator, its
	// rendered sections, and a timing line labelled label with note
	// appended. csv is called only when exporting.
	emit := func(name, label string, f func() (sections []string, note string, csv func() artifact.Table, err error)) {
		units = append(units, unit{name: name, done: make(chan struct{}), run: func() (string, []artifact.Table, error) {
			start := time.Now()
			sections, note, csv, err := f()
			if err != nil {
				return "", nil, err
			}
			var sb strings.Builder
			fmt.Fprintln(&sb, sep)
			for _, sec := range sections {
				fmt.Fprintln(&sb, sec)
			}
			fmt.Fprintf(&sb, "[%s regenerated in %.1fs%s]\n\n", label, time.Since(start).Seconds(), note)
			var tabs []artifact.Table
			if exportCSV {
				tabs = append(tabs, csv())
			}
			return sb.String(), tabs, nil
		}})
	}
	add := func(name string, f func() (result, error)) {
		if want(name) {
			emit(name, name, func() ([]string, string, func() artifact.Table, error) {
				r, err := f()
				if err != nil {
					return nil, "", nil, err
				}
				return []string{r.Render()}, "", r.CSV, nil
			})
		}
	}

	add("table1", func() (result, error) { r, err := experiments.RunTableI(cfg); return r, err })
	add("fig1", func() (result, error) { r, err := experiments.RunFig1(cfg); return r, err })
	add("fig2", func() (result, error) { r, err := experiments.RunFig2(cfg); return r, err })

	// fig2smi is strictly opt-in (-only must name it): it adds the
	// nvidia-smi sampling-pathology pipeline on top of the Fig. 2 run,
	// and the default stdout is pinned byte-identical by the golden
	// test, so it never joins the default list.
	if selected["fig2smi"] {
		emit("fig2smi", "fig2smi", func() ([]string, string, func() artifact.Table, error) {
			r, err := experiments.RunFig2(cfg)
			if err != nil {
				return nil, "", nil, err
			}
			return []string{r.RenderPipelines()}, "", r.PipelinesCSV, nil
		})
	}
	add("fig3", func() (result, error) { r, err := experiments.RunFig3(cfg); return r, err })

	if want("fig4") || want("fig5") {
		emit("fig4/5", "fig4+fig5", func() ([]string, string, func() artifact.Table, error) {
			sc, err := experiments.RunScaling(cfg)
			if err != nil {
				return nil, "", nil, err
			}
			var sections []string
			if want("fig4") {
				sections = append(sections, sc.Fig4Render())
			}
			if want("fig5") {
				sections = append(sections, sc.Fig5Render())
			}
			lo, hi := sc.ModeRange()
			return sections, fmt.Sprintf("; 1-node mode range %.0f–%.0f W (paper: 766–1814 W)", lo, hi), sc.CSV, nil
		})
	}

	add("fig6", func() (result, error) { r, err := experiments.RunFig6(cfg); return r, err })
	add("fig7", func() (result, error) { r, err := experiments.RunFig7(cfg); return r, err })
	add("fig8", func() (result, error) { r, err := experiments.RunFig8(cfg); return r, err })
	add("fig9", func() (result, error) { r, err := experiments.RunFig9(cfg); return r, err })

	if want("fig10") || want("fig12") {
		emit("fig10/12", "fig10+fig12", func() ([]string, string, func() artifact.Table, error) {
			cs, err := experiments.RunCapStudy(cfg)
			if err != nil {
				return nil, "", nil, err
			}
			var sections []string
			if want("fig10") {
				sections = append(sections, cs.Fig10Render())
			}
			if want("fig12") {
				sections = append(sections, cs.Fig12Render())
			}
			return sections, "", cs.CSV, nil
		})
	}

	add("fig11", func() (result, error) { r, err := experiments.RunFig11(cfg); return r, err })
	add("fig13", func() (result, error) { r, err := experiments.RunFig13(cfg); return r, err })
	add("exta", func() (result, error) { r, err := experiments.RunExtScheduler(cfg); return r, err })
	add("extb", func() (result, error) { r, err := experiments.RunExtRepeats(cfg); return r, err })
	add("extc", func() (result, error) { r, err := experiments.RunExtC(cfg); return r, err })
	add("extd", func() (result, error) { r, err := experiments.RunExtD(cfg); return r, err })
	add("exte", func() (result, error) { r, err := experiments.RunExtE(cfg); return r, err })
	add("extf", func() (result, error) { r, err := experiments.RunExtF(cfg); return r, err })
	add("extg", func() (result, error) { r, err := experiments.RunExtG(cfg); return r, err })

	// The experiment list itself goes through the pool: each unit's
	// output lands in its slot and is printed strictly in list order as
	// it becomes ready. A failed unit surfaces its own error, at its
	// position in the list, exactly like the serial CLI did. Each unit
	// gets an "experiment" span and a manifest timing entry; neither
	// touches the rendered output.
	platName := platformName(cfg)
	go par.ForEach(context.Background(), par.Workers(cfg.Workers), len(units),
		func(_ context.Context, i int) error {
			u := &units[i]
			sp := cfg.Env.Obs().Span("experiment")
			start := time.Now()
			u.text, u.tables, u.err = u.run()
			u.seconds = time.Since(start).Seconds()
			sp.Set("name", u.name).Set("platform", platName).Set("error", u.err != nil)
			sp.End()
			close(u.done)
			return nil // errors surface in list order below
		})

	var tables []artifact.Table
	timings := make([]obs.ExperimentTiming, 0, len(units))
	for i := range units {
		u := &units[i]
		<-u.done
		if u.err != nil {
			return nil, fmt.Errorf("%s: %w", u.name, u.err)
		}
		fmt.Fprint(w, u.text)
		tables = append(tables, u.tables...)
		timings = append(timings, obs.ExperimentTiming{Name: u.name, Seconds: u.seconds})
	}

	if exportCSV && len(tables) > 0 {
		paths, err := artifact.Write(artifactDir, tables...)
		if err != nil {
			return nil, fmt.Errorf("artifact export: %w", err)
		}
		fmt.Fprintf(w, "artifact bundle: %d CSV files under %s\n", len(paths), artifactDir)
	}
	return timings, nil
}
