package main

import (
	"bytes"
	"os"
	"testing"

	"vasppower/internal/experiments"
	"vasppower/internal/obs"
)

// TestWarmQuickRunFromDisk is the tentpole's acceptance test: a -quick
// run against a populated disk cache performs zero MeasureSpec
// computations (every lookup is a disk hit) and renders stdout
// byte-identical to both the cold run that populated the cache and the
// pinned golden file.
func TestWarmQuickRunFromDisk(t *testing.T) {
	dir := t.TempDir()
	env, err := experiments.NewEnv(experiments.EnvOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var cold bytes.Buffer
	if _, err := run(experiments.Config{Seed: 2024, Quick: true, Env: env}, "", "", &cold); err != nil {
		t.Fatal(err)
	}

	// Warm run: a fresh Env (a fresh process) over the populated
	// directory, counters attached so we can prove where lookups landed.
	o := obs.New()
	if env, err = experiments.NewEnv(experiments.EnvOptions{Obs: o, CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	var warm bytes.Buffer
	if _, err := run(experiments.Config{Seed: 2024, Quick: true, Env: env}, "", "", &warm); err != nil {
		t.Fatal(err)
	}

	if normalize(cold.String()) != normalize(warm.String()) {
		t.Error("warm run output diverged from the cold run that populated the cache")
	}
	want, err := os.ReadFile("testdata/quick_perlmutter-a100.golden")
	if err != nil {
		t.Fatal(err)
	}
	if normalize(warm.String()) != string(want) {
		t.Error("warm run output diverged from the pinned golden file")
	}

	c := o.Metrics.Snapshot().Counters
	if c["diskcache.hits"] == 0 {
		t.Fatalf("diskcache.hits = 0 on the warm run; counters: %v", c)
	}
	if c["diskcache.misses"] != 0 {
		t.Fatalf("diskcache.misses = %d on the warm run, want 0 (a miss means a recomputation)", c["diskcache.misses"])
	}
	if c["diskcache.corrupt"] != 0 || c["diskcache.errors"] != 0 {
		t.Fatalf("disk tier reported corruption or errors on a clean warm run: %v", c)
	}
	// Every memory-tier miss was absorbed by the disk tier.
	if c["memo.misses"] != c["diskcache.hits"] {
		t.Fatalf("memo.misses = %d but diskcache.hits = %d; some lookup bypassed the disk tier",
			c["memo.misses"], c["diskcache.hits"])
	}
}
