// Command powerd serves the measurement engine over HTTP: a
// long-running daemon exposing the core queries as JSON endpoints so
// dashboards, schedulers, and batch scripts can share one warm
// measurement cache instead of each paying cold simulation.
//
// Usage:
//
//	powerd [-addr localhost:8080] [-platform NAME]
//	       [-cache-dir DIR] [-cache-max-bytes N]
//	       [-max-in-flight N] [-max-queue N] [-batch-window D]
//	       [-max-sweep-points N] [-timeout D]
//	       [-telemetry] [-hold D] [-manifest FILE]
//	       [-oneshot JSON] [-version]
//
// Endpoints:
//
//	POST /v1/measure    one MeasureSpec → profile summary JSON
//	POST /v1/sweep      cap or scaling sweep (batched; "stream":true → NDJSON)
//	POST /v1/schedule   facility what-if under a capping policy
//	GET  /v1/omni/...   read-only telemetry-store queries
//	GET  /v1/telemetry  drain a host's live power samples
//	GET  /healthz       liveness + cache occupancy
//	GET  /metrics       Prometheus text (with -telemetry)
//	GET  /debug/pprof/  profiles; /debug/vars metrics snapshot
//
// The server coalesces identical concurrent requests onto one
// evaluation, micro-batches sweep points across clients, and sheds
// load with 429 + Retry-After once the admission queue fills. A warm
// repeat of any request is served from pre-serialized canonical bytes
// without parsing, evaluating, or allocating.
//
// -hold bounds the serving lifetime: the default -1 serves until
// SIGINT/SIGTERM; a positive duration exits after that long (or on an
// earlier signal). Shutdown is graceful either way: the listener
// closes, in-flight requests finish, then the -manifest file (with
// the final serve.* metrics) is written.
//
// -oneshot JSON evaluates one /v1/measure request through the same
// pipeline without listening and prints the response body to stdout —
// byte-identical to the served response for the same spec, which CI
// uses to cross-check the HTTP path against the CLI path.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"vasppower/internal/experiments"
	"vasppower/internal/hw/platform"
	"vasppower/internal/obs"
	"vasppower/internal/omni"
	"vasppower/internal/par"
	"vasppower/internal/serve"
	"vasppower/internal/telemetry"
	"vasppower/internal/telemetry/promexp"
)

type options struct {
	addr          string
	hold          time.Duration
	oneshot       string
	cacheDir      string
	cacheMaxBytes int64
	manifestPath  string
	maxInFlight   int
	maxQueue      int
	batchWindow   time.Duration
	maxSweep      int
	timeout       time.Duration
	workers       int
	telemetry     bool
	drainTimeout  time.Duration

	// ready, when non-nil, receives the bound address once the server
	// is listening (the tests' startup synchronization).
	ready chan<- string
}

func main() {
	var opts options
	flag.StringVar(&opts.addr, "addr", "localhost:8080", "listen address (host:port; :0 picks a free port)")
	flag.DurationVar(&opts.hold, "hold", -1, "serving lifetime: negative (e.g. -1s, the default) = until SIGINT/SIGTERM, >0 = exit after this long (a signal still exits early)")
	flag.StringVar(&opts.oneshot, "oneshot", "", "evaluate one /v1/measure request body and print the response to stdout (no listener)")
	flag.StringVar(&opts.cacheDir, "cache-dir", "", "persistent measurement-cache directory (empty = in-memory only)")
	flag.Int64Var(&opts.cacheMaxBytes, "cache-max-bytes", 1<<30, "persistent cache size bound in bytes, LRU-evicted (0 = unbounded)")
	flag.StringVar(&opts.manifestPath, "manifest", "", "write a run manifest (JSON, with final serve.* metrics) at exit")
	flag.IntVar(&opts.maxInFlight, "max-in-flight", 0, "admission capacity in weight units (0 = default)")
	flag.IntVar(&opts.maxQueue, "max-queue", 0, "admission queue bound; beyond it requests get 429 (0 = default, -1 = no queue)")
	flag.DurationVar(&opts.batchWindow, "batch-window", 0, "sweep micro-batch window (0 = default 2ms)")
	flag.IntVar(&opts.maxSweep, "max-sweep-points", 0, "largest accepted sweep, in points (0 = default)")
	flag.DurationVar(&opts.timeout, "timeout", 0, "per-measure evaluation budget (0 = default 30s)")
	flag.IntVar(&opts.workers, "parallel", 0, "batch fan-out pool size (0 = one per CPU)")
	flag.BoolVar(&opts.telemetry, "telemetry", false, "stream measurement power samples and serve Prometheus text at /metrics")
	flag.DurationVar(&opts.drainTimeout, "drain-timeout", 30*time.Second, "grace period for in-flight requests at shutdown")
	version := flag.Bool("version", false, "print module version, VCS revision, and dirty flag, then exit")
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionString("powerd"))
		return
	}
	if err := run(opts, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "powerd:", err)
		os.Exit(1)
	}
}

// run is the whole daemon behind flag parsing, so tests can drive it
// with a ready channel and a signal.
func run(opts options, stdout, stderr io.Writer) error {
	reg := obs.NewRegistry()
	experiments.Instrument(reg)

	if opts.cacheDir != "" {
		st, err := experiments.EnableDiskCache(opts.cacheDir, opts.cacheMaxBytes)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "powerd: persistent measurement cache at %s (%d entries)\n", st.Dir(), st.Len())
	}

	cfg := serve.Config{
		Workers:        opts.workers,
		MaxInFlight:    opts.maxInFlight,
		MaxQueue:       opts.maxQueue,
		Timeout:        opts.timeout,
		MaxSweepPoints: opts.maxSweep,
		BatchWindow:    opts.batchWindow,
		Reg:            reg,
	}

	var col *promexp.Collector
	if opts.telemetry {
		hub := telemetry.NewHub()
		smp, err := telemetry.NewSampler(hub, 1.0)
		if err != nil {
			return err
		}
		telemetry.SetDefault(smp)
		c, err := promexp.NewCollector(hub, reg, 1<<16)
		if err != nil {
			return err
		}
		col = c
		store := omni.NewStore()
		sub, err := hub.Subscribe("", 1<<16)
		if err != nil {
			return err
		}
		go telemetry.Pump(sub, store) // ends when the hub's subs close
		cfg.Hub = hub
		cfg.Store = store
	}

	srv := serve.New(cfg)

	if opts.oneshot != "" {
		status, body := srv.OneShot("POST", "/v1/measure", []byte(opts.oneshot))
		stdout.Write(body)
		if status != 200 {
			return fmt.Errorf("oneshot: status %d", status)
		}
		return writeManifest(opts, reg, time.Now())
	}

	started := time.Now()
	ds, err := obs.ServeDebug(opts.addr, reg)
	if err != nil {
		return err
	}
	srv.Mount(ds)
	if col != nil {
		ds.Handle("/metrics", col)
	}
	fmt.Fprintf(stderr, "powerd: serving on http://%s (/v1/measure, /v1/sweep, /v1/schedule, /v1/omni/*, /healthz)\n", ds.Addr)
	wait := serve.NotifyShutdown(opts.hold)
	if opts.ready != nil {
		opts.ready <- ds.Addr
	}

	reason := wait()
	fmt.Fprintf(stderr, "powerd: shutting down (%s); draining in-flight requests\n", reason)
	ctx, cancel := context.WithTimeout(context.Background(), opts.drainTimeout)
	defer cancel()
	if err := ds.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "powerd: drain incomplete: %v\n", err)
	}
	if col != nil {
		col.Close()
	}
	if err := writeManifest(opts, reg, started); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "powerd: served %d requests (%d cache hits, %d coalesced) over %s\n",
		srv.Metrics().Requests.Value(), srv.Metrics().Hits.Value(),
		srv.Metrics().Coalesced.Value(), time.Since(started).Round(time.Millisecond))
	return nil
}

func writeManifest(opts options, reg *obs.Registry, started time.Time) error {
	if opts.manifestPath == "" {
		return nil
	}
	snap := reg.Snapshot()
	err := obs.Manifest{
		Tool:        "powerd",
		Build:       obs.GetBuildInfo(),
		Platform:    platform.DefaultName,
		Workers:     par.Workers(opts.workers),
		Started:     started.UTC(),
		WallSeconds: time.Since(started).Seconds(),
		Metrics:     &snap,
	}.Write(opts.manifestPath)
	if err != nil {
		return err
	}
	return nil
}
