// Command omniquery demonstrates the telemetry path end to end: it
// runs an instrumented benchmark job, ingests every node's sensors
// into an OMNI-like store through the LDMS sampling pipeline (1 s
// nominal, ~2 s effective after drops), registers the job, and then
// answers power queries against the store — the workflow of the
// paper's §II-B infrastructure and its querying scripts.
//
// Usage:
//
//	omniquery [-bench PdO2] [-nodes 2] [-metric node|cpu|memory|gpu0..gpu3]
//	          [-cache-dir DIR] [-cache-max-bytes N]
//
// After answering the store queries, the tool cross-checks them
// against a reference profile of the same job produced by the
// measurement pipeline. That reference goes through the run's
// two-tier result cache (experiments.Env), so with -cache-dir set, repeated queries of
// the same benchmark reuse one simulation.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"vasppower"
	"vasppower/internal/experiments"
	"vasppower/internal/monitor"
	"vasppower/internal/obs"
	"vasppower/internal/omni"
	"vasppower/internal/report"
	"vasppower/internal/serve"
	"vasppower/internal/stats"
	"vasppower/internal/telemetry"
	"vasppower/internal/telemetry/promexp"
)

func main() {
	benchName := flag.String("bench", "PdO2", "benchmark to run and ingest")
	nodes := flag.Int("nodes", 2, "node count")
	metric := flag.String("metric", "node", "metric to query (node, cpu, memory, gpu0..gpu3)")
	seed := flag.Uint64("seed", 42, "random seed")
	cacheDir := flag.String("cache-dir", "", "persistent measurement-cache directory (empty = in-memory only)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 1<<30, "persistent cache size bound in bytes, LRU-evicted (0 = unbounded)")
	telemetryAddr := flag.String("telemetry-addr", "",
		"stream per-host per-domain power samples, pump them into the store as power.<domain> metrics, and serve Prometheus text at /metrics on this address")
	hold := flag.Duration("hold", 0,
		"keep the /metrics endpoint serving after the queries complete: a duration, or negative (e.g. -1s) to serve until SIGINT/SIGTERM (a signal always ends the hold early)")
	version := flag.Bool("version", false, "print module version, VCS revision, and dirty flag, then exit")
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionString("omniquery"))
		return
	}
	bench, ok := vasppower.BenchmarkByName(*benchName)
	if !ok {
		fatal(1, fmt.Errorf("unknown benchmark %q", *benchName))
	}

	store := omni.NewStore()

	// 0. Streaming telemetry, when asked for: the run below publishes
	// its traces into a hub; one subscriber pumps them into the store as
	// power.<domain> metrics, another feeds the Prometheus exporter.
	// Everything is set up before the run so no sample is missed.
	var streamSub *telemetry.Subscription
	pumpDone := make(chan struct{})
	var pumped int
	var reg *obs.Registry
	var hub *telemetry.Hub
	if *telemetryAddr != "" {
		reg = obs.NewRegistry()
		hub = telemetry.NewHub()
		col, err := promexp.NewCollector(hub, reg, 1<<16)
		if err != nil {
			fatal(2, err)
		}
		defer col.Close()
		ds, err := obs.ServeDebug(*telemetryAddr, reg)
		if err != nil {
			fatal(2, err)
		}
		defer ds.Close()
		ds.Handle("/metrics", col)
		fmt.Fprintf(os.Stderr, "omniquery: telemetry endpoint on http://%s/metrics\n", ds.Addr)
		defer serve.Hold(os.Stderr, "omniquery", *hold)
		streamSub, err = hub.Subscribe("", 1<<16)
		if err != nil {
			fatal(2, err)
		}
		go func() {
			defer close(pumpDone)
			n, err := telemetry.Pump(streamSub, store)
			if err != nil {
				fmt.Fprintln(os.Stderr, "omniquery: pump:", err)
			}
			pumped = n
		}()
	}

	env, err := experiments.NewEnv(experiments.EnvOptions{
		Obs: &obs.Obs{Metrics: reg}, Hub: hub,
		CacheDir: *cacheDir, CacheMaxBytes: *cacheMaxBytes,
	})
	if err != nil {
		fatal(2, err)
	}

	// 1. Run the job (with the burn-in prelude, as production jobs do).
	out, err := vasppower.Run(vasppower.RunSpec{
		Bench: bench, Nodes: *nodes, Repeats: 1, Prelude: true, Seed: *seed, Sink: env.Sampler(),
	})
	if err != nil {
		fatal(1, err)
	}

	// The run has published everything it will; close the pump's
	// subscription, let it drain, and report what streamed in.
	if streamSub != nil {
		streamSub.Close()
		<-pumpDone
		fmt.Printf("streaming ingest: %d power.<domain> samples pumped into the store\n", pumped)
	}

	// 2. Ingest every node's sensors through the LDMS pipeline.
	cfg := monitor.LDMSDefault()
	cfg.Seed = *seed
	for _, n := range out.Nodes {
		series, err := monitor.SampleNode(n, cfg)
		if err != nil {
			fatal(1, err)
		}
		for m, s := range series {
			if err := store.Insert(n.Name, m, s); err != nil {
				fatal(1, err)
			}
		}
	}

	// 3. Register the job window (the VASP portion).
	var hostnames []string
	for _, n := range out.Nodes {
		hostnames = append(hostnames, n.Name)
	}
	job := omni.JobRecord{
		ID: "1", User: "materials-user", App: bench.Name,
		Nodes: hostnames, Start: out.VASPStart, End: out.VASPEnd,
	}
	if err := store.RegisterJob(job); err != nil {
		fatal(1, err)
	}

	// 4. Query it back.
	fmt.Printf("store: %d hosts, metrics per host: %v\n",
		len(store.Hosts()), store.MetricsOf(store.Hosts()[0]))
	perNode, err := store.JobPower(job.ID, *metric)
	if err != nil {
		fatal(1, err)
	}
	var names []string
	for h := range perNode {
		names = append(names, h)
	}
	sort.Strings(names)
	fmt.Printf("\njob %s (%s, %d nodes), metric %q over [%.0f, %.0f] s:\n\n",
		job.ID, job.App, len(names), *metric, job.Start, job.End)
	for _, h := range names {
		s := perNode[h]
		fmt.Println(report.SeriesLine(h, s, 64))
		if hm, ok := stats.HighPowerModeOf(s.Values); ok {
			fmt.Printf("%-14s high power mode %.0f W (FWHM %.0f), effective interval %.1f s, max gap %.1f s\n",
				"", hm.X, hm.FWHM, s.Interval(), s.MaxGap())
		}
	}
	if e, err := store.JobEnergy(job.ID); err == nil {
		fmt.Printf("\njob node-level energy (trapezoidal from telemetry): %.2f MJ\n", e/1e6)
	}

	// 5. Cross-check against the measurement pipeline's profile of the
	// same (benchmark, nodes, seed) — served from the two-tier result
	// cache, so repeated queries skip the second simulation.
	jp, err := env.Measure(vasppower.MeasureSpec{
		Bench: bench, Nodes: *nodes, Repeats: 1, Seed: *seed,
	})
	if err != nil {
		fatal(1, err)
	}
	fmt.Printf("\nreference profile (measurement pipeline, cached): ")
	if m, ok := jp.NodeTotal.HighMode(); ok {
		fmt.Printf("node high power mode %.0f W (FWHM %.0f), ", m.X, m.FWHM)
	}
	fmt.Printf("runtime %.0f s, energy %.2f MJ\n", jp.Runtime, jp.EnergyJ/1e6)
}

// fatal reports err and exits with code.
func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "omniquery:", err)
	os.Exit(code)
}
