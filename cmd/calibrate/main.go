// Command calibrate prints the model's power/performance landing
// points against the paper's published targets, for tuning the
// platform efficiency tables.
//
// Modes:
//
//	calibrate                  human-readable landing-point report
//	calibrate -json            machine-readable report, exit 1 on drift
//	calibrate -tolerances F    judge against a checked-in drift budget
//	calibrate -fit-tables      refit the platform's efficiency table
//	                           from black-box device probes, emit JSON
//
// Every measurement goes through the run's two-tier result cache
// (experiments.Env); with -cache-dir set, repeated calibration passes (the whole
// point of the tool) reuse each other's simulations instead of
// re-running them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"vasppower/internal/core"
	"vasppower/internal/experiments"
	"vasppower/internal/hw/platform"
	"vasppower/internal/obs"
	"vasppower/internal/workloads"
)

func main() {
	cacheDir := flag.String("cache-dir", "", "persistent measurement-cache directory (empty = in-memory only)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 1<<30, "persistent cache size bound in bytes, LRU-evicted (0 = unbounded)")
	jsonOut := flag.Bool("json", false, "emit the machine-readable calibration report on stdout; exit 1 on drift")
	tolPath := flag.String("tolerances", "", "JSON drift-budget file (see calibration-tolerances.json); enables drift gating in text mode too")
	platName := flag.String("platform", "", "platform to calibrate (default: "+platform.DefaultName+")")
	fitFlag := flag.Bool("fit-tables", false, "fit an efficiency table from black-box device probes and write it as JSON")
	outPath := flag.String("out", "", "output file for -fit-tables (default stdout)")
	version := flag.Bool("version", false, "print module version, VCS revision, and dirty flag, then exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("calibrate"))
		return
	}

	p := platform.Default()
	if *platName != "" {
		var err error
		if p, err = platform.Get(*platName); err != nil {
			fatal(err)
		}
	}

	if *fitFlag {
		m, err := fitTables(p)
		if err != nil {
			fatal(err)
		}
		blob, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			fatal(err)
		}
		blob = append(blob, '\n')
		if *outPath != "" {
			if err := os.WriteFile(*outPath, blob, 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "calibrate: fitted table %s written to %s\n", m.Name, *outPath)
		} else {
			os.Stdout.Write(blob)
		}
		return
	}

	env, err := experiments.NewEnv(experiments.EnvOptions{CacheDir: *cacheDir, CacheMaxBytes: *cacheMaxBytes})
	if err != nil {
		fatal(err)
	}

	tol := defaultTolerances()
	if *tolPath != "" {
		var err error
		if tol, err = loadTolerances(*tolPath); err != nil {
			fatal(err)
		}
	}

	const seed = 42
	measure := env.Measure
	rep, err := buildReport(measure, p, tol, seed)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		if err := rep.writeJSON(os.Stdout); err != nil {
			fatal(err)
		}
	} else {
		rep.writeText(os.Stdout)
		printParallelEfficiency(measure, p, seed)
	}
	env.Flush()
	if !rep.Pass && (*jsonOut || *tolPath != "") {
		os.Exit(1)
	}
}

// printParallelEfficiency renders the strong-scaling section of the
// text report (not part of the drift gate: PE targets are bounds the
// repo's own tests enforce).
func printParallelEfficiency(measure func(core.MeasureSpec) (core.JobProfile, error), p platform.Platform, seed uint64) {
	fmt.Println("\n=== Parallel efficiency, Si256_hse (target: >=70% to ~8-16 nodes) ===")
	b, _ := workloads.ByName("Si256_hse")
	base, err := measure(core.MeasureSpec{Bench: b, Platform: p, Nodes: 1, Seed: seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		return
	}
	for _, n := range []int{2, 4, 8, 16, 32} {
		jp, err := measure(core.MeasureSpec{Bench: b, Platform: p, Nodes: n, Seed: seed})
		if err != nil {
			fmt.Printf("  %2d nodes: %v\n", n, err)
			continue
		}
		pe := base.Runtime / jp.Runtime / float64(n)
		mode, _ := jp.NodeTotal.HighMode()
		fmt.Printf("  %2d nodes: runtime %7.1fs  PE %5.1f%%  nodeMode %6.0f W  energy %6.2f MJ\n",
			n, jp.Runtime, pe*100, mode.X, jp.EnergyJ/1e6)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "calibrate:", err)
	os.Exit(2)
}
