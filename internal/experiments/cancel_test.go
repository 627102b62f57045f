package experiments

import (
	"bytes"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"vasppower/internal/core"
	"vasppower/internal/workloads"
)

// countTempFiles walks a disk-cache directory for tmp-* files — the
// in-progress atomic writes a clean shutdown never leaves behind.
func countTempFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), "tmp-") {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCachedMeasureGroupMidSweepFailure: a sweep that dies mid-way (a
// cap below the GPU's settable range fails the third point here) must
// release its SweepContext arena and leave the disk cache with only
// whole, committed entries — the completed points' writes are atomic
// and no temp files remain — and return the completed points' profiles
// with the error.
func TestCachedMeasureGroupMidSweepFailure(t *testing.T) {
	dir := t.TempDir()
	env, err := NewEnv(EnvOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}

	b, ok := workloads.ByName("B.hR105_hse")
	if !ok {
		t.Fatal("B.hR105_hse missing")
	}
	spec := core.MeasureSpec{Bench: b, Nodes: 1, Repeats: 1, Seed: 3}
	before := workloads.ActiveSweeps()
	badCap := quickCfg().platform().GPU.MinPowerLimit / 2
	done, err := env.MeasureGroup(spec, []float64{0, 250, badCap})
	if err == nil {
		t.Fatalf("cap %g W below the settable range did not fail the sweep", badCap)
	}
	if len(done) != 2 {
		t.Fatalf("failed group returned %d profiles, want the 2 before the failing point", len(done))
	}
	if got := workloads.ActiveSweeps(); got != before {
		t.Fatalf("ActiveSweeps = %d, want %d (arena leaked after mid-sweep failure)", got, before)
	}
	if n := countTempFiles(t, dir); n != 0 {
		t.Fatalf("%d tmp-* files left in the disk cache after a failed sweep", n)
	}

	// The points that completed before the failure are committed whole:
	// a fresh measurement of either must be a cache hit bit-identical
	// to what the failed sweep stored and returned.
	for i, capW := range []float64{0, 250} {
		pt := spec
		pt.CapW = capW
		jp, err := env.Measure(pt)
		if err != nil {
			t.Fatalf("completed point cap=%g unreadable after failed sweep: %v", capW, err)
		}
		if !bytes.Equal(core.AppendJobProfile(nil, jp), core.AppendJobProfile(nil, done[i])) {
			t.Fatalf("completed point cap=%g differs from the profile the failed sweep returned", capW)
		}
	}
}
