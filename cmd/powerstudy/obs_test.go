package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vasppower/internal/experiments"
	"vasppower/internal/obs"
)

// TestObservabilityRun drives the full -quick suite exactly as
// `powerstudy -quick -parallel 4 -trace t -manifest m` would and pins
// the acceptance contract: stdout stays byte-identical to the golden
// file, the trace carries one "experiment" span per unit plus
// "measure" spans with cache-hit status, and the manifest is
// parseable JSON with build info, per-experiment wall time, and a
// nonzero memo hit count at Workers > 1.
func TestObservabilityRun(t *testing.T) {
	var trace bytes.Buffer
	o := obs.New()
	o.Tracer = obs.NewTracer(&trace)
	env, err := experiments.NewEnv(experiments.EnvOptions{Obs: o})
	if err != nil {
		t.Fatal(err)
	}

	cfg := experiments.Config{Seed: 2024, Quick: true, Workers: 4, Env: env}
	var out bytes.Buffer
	started := time.Now()
	timings, err := run(cfg, "", "", &out)
	if err != nil {
		t.Fatal(err)
	}

	// 1. Telemetry must not leak into the rendered output.
	want, err := os.ReadFile("testdata/quick_perlmutter-a100.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := normalize(out.String()); got != string(want) {
		t.Error("stdout with observability on diverged from the golden file")
	}

	// 2. One "experiment" span per unit, "measure" spans with
	// cache-hit status, every line valid JSON.
	expSpans := map[string]bool{}
	measures, cacheHits := 0, 0
	for _, line := range strings.Split(strings.TrimSuffix(trace.String(), "\n"), "\n") {
		var span map[string]any
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("trace line is not JSON: %v\n%q", err, line)
		}
		if _, ok := span["ms"].(float64); !ok {
			t.Fatalf("span without duration: %q", line)
		}
		switch span["span"] {
		case "experiment":
			expSpans[span["name"].(string)] = true
		case "measure":
			measures++
			hit, ok := span["cache_hit"].(bool)
			if !ok {
				t.Fatalf("measure span without cache_hit: %q", line)
			}
			if hit {
				cacheHits++
			}
		}
	}
	if len(timings) == 0 || len(expSpans) != len(timings) {
		t.Fatalf("experiment spans = %d, want one per unit (%d): %v",
			len(expSpans), len(timings), expSpans)
	}
	for _, tm := range timings {
		if !expSpans[tm.Name] {
			t.Fatalf("no span for experiment %q", tm.Name)
		}
	}
	if measures == 0 {
		t.Fatal("no measure spans in trace")
	}
	if cacheHits == 0 {
		t.Fatal("no cache-hit measure spans; the memo cache is not being observed")
	}

	// 3. The manifest round-trips with provenance and metrics.
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := writeManifest(path, cfg, started, timings); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("manifest is not parseable JSON: %v", err)
	}
	if m.Tool != "powerstudy" || m.Platform != "perlmutter-a100" || m.Seed != 2024 {
		t.Fatalf("manifest header wrong: %+v", m)
	}
	if m.Build.Module != "vasppower" || m.Build.GoVersion == "" {
		t.Fatalf("manifest build info missing: %+v", m.Build)
	}
	if m.Workers < 2 {
		t.Fatalf("manifest workers = %d, want the resolved pool size", m.Workers)
	}
	if len(m.Experiments) != len(timings) {
		t.Fatalf("manifest has %d experiment timings, want %d", len(m.Experiments), len(timings))
	}
	if m.Metrics == nil {
		t.Fatal("manifest has no metrics snapshot")
	}
	if m.Metrics.Counters["memo.hits"] == 0 {
		t.Fatalf("memo.hits = 0 in manifest; counters: %v", m.Metrics.Counters)
	}
	if m.Metrics.Counters["memo.hits"]+m.Metrics.Counters["memo.misses"] != m.Metrics.Counters["memo.lookups"] {
		t.Fatalf("memo ledger unbalanced in manifest: %v", m.Metrics.Counters)
	}
	if m.Metrics.Counters["sim.steps"] == 0 {
		t.Fatal("sim.steps = 0; the simulation engine is not being observed")
	}
	if m.Metrics.Counters["par.items_started"] == 0 {
		t.Fatal("par.items_started = 0; the worker pool is not being observed")
	}
	if m.Metrics.Counters["timeseries.sum_segments"] == 0 {
		t.Fatal("timeseries.sum_segments = 0; trace summation is not being observed")
	}
	if m.Metrics.Counters["timeseries.samples"] == 0 {
		t.Fatal("timeseries.samples = 0; the sampling pipeline is not being observed")
	}
}
