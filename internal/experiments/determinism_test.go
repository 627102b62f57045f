package experiments

import (
	"reflect"
	"sync"
	"testing"

	"vasppower/internal/core"
	"vasppower/internal/workloads"
)

// The parallel engine's contract: worker count is invisible in the
// results. Every random draw comes from a seed-split stream and every
// result lands in a slot chosen by index, so Workers:8 must reproduce
// Workers:1 bit for bit — including with Repeats > 1.

func TestRunScalingParallelMatchesSerial(t *testing.T) {
	serialCfg := Config{Seed: 42, Quick: true, Repeats: 2, Workers: 1}
	parallelCfg := serialCfg
	parallelCfg.Workers = 8

	serial, err := RunScaling(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunScaling(parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("RunScaling: Workers:8 result differs from Workers:1 at the same seed")
	}
}

func TestRunCapStudyParallelMatchesSerial(t *testing.T) {
	serialCfg := Config{Seed: 42, Quick: true, Repeats: 2, Workers: 1}
	parallelCfg := serialCfg
	parallelCfg.Workers = 8

	serial, err := RunCapStudy(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunCapStudy(parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("RunCapStudy: Workers:8 result differs from Workers:1 at the same seed")
	}
}

// TestSpecKeyCapNormalization: a cap at or above the platform's GPU
// TDP is the stock power limit, so it must key identically to
// uncapped, while a binding cap keys distinctly.
func TestSpecKeyCapNormalization(t *testing.T) {
	b, ok := workloads.ByName("Si256_hse")
	if !ok {
		t.Fatal("Si256_hse missing")
	}
	base := core.MeasureSpec{Bench: b}
	uncapped := SpecKey(base)
	tdp := quickCfg().platform().GPU.TDP
	for _, capW := range []float64{tdp, tdp + 50, tdp * 10} {
		s := base
		s.CapW = capW
		if got := SpecKey(s); got != uncapped {
			t.Fatalf("cap %g W keys as %q, want uncapped key %q", capW, got, uncapped)
		}
	}
	s := base
	s.CapW = tdp - 150
	if SpecKey(s) == uncapped {
		t.Fatalf("binding %g W cap keys as uncapped", s.CapW)
	}
}

// TestCachedMeasureGroupMatchesSpec: the group path (one shared
// incremental sweep context) must be bit-identical to independent
// Measure calls, including a non-binding cap point that
// shares the uncapped point's cache entry.
func TestCachedMeasureGroupMatchesSpec(t *testing.T) {
	b, ok := workloads.ByName("B.hR105_hse")
	if !ok {
		t.Fatal("B.hR105_hse missing")
	}
	spec := core.MeasureSpec{Bench: b, Nodes: 1, Repeats: 1, Seed: 11}
	tdp := quickCfg().platform().GPU.TDP
	caps := []float64{0, 250, tdp + 100}
	got, err := newEnv().MeasureGroup(spec, caps)
	if err != nil {
		t.Fatal(err)
	}
	env := newEnv()
	for i, capW := range caps {
		pt := spec
		pt.CapW = capW
		want, err := env.Measure(pt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("cap %g W: group profile differs from per-point profile", capW)
		}
	}
}

// Hammer one Env's measurement cache from many goroutines asking for
// a handful of overlapping keys. Under -race this is the proof that
// the singleflight cache and the measurement path are data-race free;
// in any mode it checks that concurrent callers of the same key all
// observe the same profile.
func TestConcurrentMeasureConsistency(t *testing.T) {
	benches := workloads.TableI()[:3]

	// Reference profiles, measured serially in their own Env.
	want := make([]core.JobProfile, len(benches))
	ref := Config{Seed: 42, Env: newEnv()}
	for i, b := range benches {
		jp, err := measure(ref, b, 1, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = jp
	}
	cfg := Config{Seed: 42, Env: newEnv()}

	const goroutines = 16
	const iters = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(benches)
				jp, err := measure(cfg, benches[i], 1, 1, 0)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(jp, want[i]) {
					t.Errorf("goroutine %d: %s profile differs from serial reference", g, benches[i].Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
