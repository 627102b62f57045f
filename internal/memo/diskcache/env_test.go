package diskcache_test

import (
	"bytes"
	"sync"
	"testing"

	"vasppower/internal/core"
	"vasppower/internal/experiments"
	"vasppower/internal/obs"
	"vasppower/internal/workloads"
)

// TestConcurrentWarmSameKey is the disk tier's concurrency contract,
// through the Env that owns it: two goroutines measuring one spec on one
// disk-backed Env share one disk read and one computation (the read
// runs inside the key's flight), Flush writes the profile behind, and a
// fresh Env on the same directory, a later process, serves it from disk
// without computing at all.
func TestConcurrentWarmSameKey(t *testing.T) {
	dir := t.TempDir()
	b, _ := workloads.ByName("PdO2")
	spec := core.MeasureSpec{Bench: b, Seed: 2024}
	open := func() (*experiments.Env, *obs.Registry) {
		reg := obs.NewRegistry()
		env, err := experiments.NewEnv(experiments.EnvOptions{Obs: &obs.Obs{Metrics: reg}, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return env, reg
	}

	env, reg := open()
	var got [2][]byte
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jp, err := env.Measure(spec)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = core.AppendJobProfile(nil, jp)
		}()
	}
	wg.Wait()
	c := reg.Snapshot().Counters
	// Every flight's leader reads the disk tier once and, on a miss,
	// computes: one disk miss is one computation.
	if c["memo.misses"] != 1 || c["diskcache.misses"] != 1 || c["diskcache.hits"] != 0 {
		t.Fatalf("memo.misses %d, diskcache misses/hits %d/%d, want 1, 1/0",
			c["memo.misses"], c["diskcache.misses"], c["diskcache.hits"])
	}
	if !bytes.Equal(got[0], got[1]) {
		t.Fatal("the two callers got different profiles")
	}
	env.Flush()

	warm, reg := open()
	jp, err := warm.Measure(spec)
	if err != nil {
		t.Fatal(err)
	}
	c = reg.Snapshot().Counters
	if c["diskcache.hits"] != 1 || c["diskcache.misses"] != 0 {
		t.Fatalf("fresh Env: diskcache hits/misses %d/%d, want 1/0 (no computation)", c["diskcache.hits"], c["diskcache.misses"])
	}
	if !bytes.Equal(core.AppendJobProfile(nil, jp), got[0]) {
		t.Fatal("the disk hit differs from the computed profile")
	}
}
