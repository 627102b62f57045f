package experiments

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"vasppower/internal/core"
	"vasppower/internal/memo"
	"vasppower/internal/obs"
	"vasppower/internal/workloads"
)

var errNotCached = errors.New("not cached")

// cached returns the profile e's memory tier holds complete under key.
// It is a lookup whose compute fails, so it counts one memo lookup and
// leaves the cache as it found it.
func (e *Env) cached(key string) (core.JobProfile, bool) {
	jp, how, err := e.cache.Flight(context.Background(), key, func() (core.JobProfile, error) {
		return core.JobProfile{}, errNotCached
	})
	return jp, how != memo.Led && err == nil
}

// tierEnv opens an Env over the disk tier in dir, reporting to a fresh
// registry.
func tierEnv(t *testing.T, dir string) (*Env, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	env, err := NewEnv(EnvOptions{Obs: &obs.Obs{Metrics: reg}, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return env, reg
}

// profileCompute returns a compute step that yields one measured profile
// and counts its calls, and that profile's encoding.
func profileCompute(t *testing.T) (compute func() (core.JobProfile, error), calls *int, want []byte) {
	t.Helper()
	b, _ := workloads.ByName("PdO2")
	jp, err := core.Measure(core.MeasureSpec{Bench: b, Seed: 2024})
	if err != nil {
		t.Fatal(err)
	}
	calls = new(int)
	return func() (core.JobProfile, error) { *calls++; return jp, nil }, calls, core.AppendJobProfile(nil, jp)
}

// TestTierOrder pins the lookup path of a disk-backed Env: memory, then
// disk, then compute. A disk hit is promoted into memory, and a Reset
// drops the memory tier only, so the disk serves the next lookup.
func TestTierOrder(t *testing.T) {
	dir := t.TempDir()
	compute, calls, want := profileCompute(t)
	env, reg := tierEnv(t, dir)
	step := func(e *Env, reg *obs.Registry, name string, computes int, hits, misses int64) {
		t.Helper()
		jp, err := e.lookup("k", measured{}, "full", compute)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(core.AppendJobProfile(nil, jp), want) {
			t.Fatalf("%s: served a different profile", name)
		}
		c := reg.Snapshot().Counters
		if *calls != computes || c["diskcache.hits"] != hits || c["diskcache.misses"] != misses {
			t.Fatalf("%s: %d computes, diskcache hits/misses %d/%d, want %d, %d/%d",
				name, *calls, c["diskcache.hits"], c["diskcache.misses"], computes, hits, misses)
		}
	}
	step(env, reg, "cold", 1, 0, 1)
	step(env, reg, "memory hit", 1, 0, 1)
	env.Flush()
	env.cache.Reset()
	step(env, reg, "disk hit after Reset", 1, 1, 1)
	step(env, reg, "promoted", 1, 1, 1)

	fresh, reg := tierEnv(t, dir)
	step(fresh, reg, "fresh Env", 1, 1, 0)
}

// TestComputeErrorNotWrittenBack: a disk-backed Env writes nothing
// before Flush, and a failed computation not even then; it stays out of
// memory too, so the next lookup computes again.
func TestComputeErrorNotWrittenBack(t *testing.T) {
	compute, calls, want := profileCompute(t)
	env, reg := tierEnv(t, t.TempDir())
	written := func() int64 { return reg.Snapshot().Counters["diskcache.bytes_written"] }
	boom := errors.New("boom")
	if _, err := env.lookup("k", measured{}, "full", func() (core.JobProfile, error) { return core.JobProfile{}, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	env.Flush()
	if n := written(); n != 0 {
		t.Fatalf("a failed computation was written: %d bytes", n)
	}

	if _, err := env.lookup("k", measured{}, "full", compute); err != nil || *calls != 1 {
		t.Fatalf("retry: err %v after %d computes, want a computed profile", err, *calls)
	}
	if n := written(); n != 0 {
		t.Fatalf("a computed profile was written before Flush: %d bytes", n)
	}
	env.Flush()
	if data, ok := env.Store().Get("k"); !ok || !bytes.Equal(data, want) {
		t.Fatal("Flush did not write the computed profile")
	}
}

// TestMetricsWithStoreTier pins the manifest ledger of a disk-backed
// Env: a disk hit is still a memo miss, so memo hits+misses == lookups
// whichever tier served.
func TestMetricsWithStoreTier(t *testing.T) {
	dir := t.TempDir()
	compute, calls, _ := profileCompute(t)
	fill, _ := tierEnv(t, dir)
	if _, err := fill.lookup("warm", measured{}, "full", compute); err != nil {
		t.Fatal(err)
	}
	fill.Flush()

	env, reg := tierEnv(t, dir)
	// Misses: computed, then disk-served; hits: both from memory.
	for _, key := range []string{"cold", "warm", "cold", "warm"} {
		if _, err := env.lookup(key, measured{}, "full", compute); err != nil {
			t.Fatal(err)
		}
	}
	c := reg.Snapshot().Counters
	if c["memo.lookups"] != 4 || c["memo.hits"] != 2 || c["memo.misses"] != 2 {
		t.Fatalf("memo lookups/hits/misses = %d/%d/%d, want 4/2/2", c["memo.lookups"], c["memo.hits"], c["memo.misses"])
	}
	if c["diskcache.hits"] != 1 || c["diskcache.misses"] != 1 || *calls != 2 {
		t.Fatalf("diskcache hits/misses %d/%d, %d computes, want 1/1 and 2 (the fill's and cold's)",
			c["diskcache.hits"], c["diskcache.misses"], *calls)
	}
}

// TestDecodeFailureQuarantinesAndRecomputes: a disk entry the profile
// codec cannot decode is quarantined and treated as a miss, never served
// as a value. The recomputed profile is written only at the next Flush.
func TestDecodeFailureQuarantinesAndRecomputes(t *testing.T) {
	compute, calls, want := profileCompute(t)
	env, reg := tierEnv(t, t.TempDir())
	env.Store().Put("k", []byte("not-a-profile"))
	written := reg.Snapshot().Counters["diskcache.bytes_written"]

	jp, err := env.lookup("k", measured{}, "full", compute)
	if err != nil || *calls != 1 {
		t.Fatalf("lookup: err %v after %d computes, want one computed profile", err, *calls)
	}
	if !bytes.Equal(core.AppendJobProfile(nil, jp), want) {
		t.Fatal("served a profile other than the computed one")
	}
	c := reg.Snapshot().Counters
	if c["diskcache.corrupt"] != 1 {
		t.Fatalf("diskcache.corrupt = %d, want 1", c["diskcache.corrupt"])
	}
	if data, ok := env.Store().Get("k"); ok {
		t.Fatalf("store holds %q after the recompute", data)
	}
	if n := c["diskcache.bytes_written"]; n != written {
		t.Fatalf("the recomputed profile was written before Flush: %d bytes", n-written)
	}
	env.Flush()
	if data, ok := env.Store().Get("k"); !ok || !bytes.Equal(data, want) {
		t.Fatal("Flush did not write the recomputed profile")
	}
}
