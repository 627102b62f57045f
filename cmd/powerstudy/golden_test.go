package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"vasppower/internal/experiments"
	"vasppower/internal/obs"
)

var timingLine = regexp.MustCompile(`regenerated in [0-9]+\.[0-9]+s`)

// normalize strips the only nondeterministic content of the output:
// wall-clock timing lines.
func normalize(s string) string {
	return timingLine.ReplaceAllString(s, "regenerated in _s")
}

// TestQuickOutputGolden pins the complete -quick output on the default
// platform, byte for byte. The golden file was captured before the
// platform layer existed, so this test is the proof that making the
// hardware pluggable changed nothing on the machine the paper
// measured. Regenerate after an intentional change with:
//
//	go run ./cmd/powerstudy -quick | sed -E \
//	  's/regenerated in [0-9]+\.[0-9]+s/regenerated in _s/' \
//	  > cmd/powerstudy/testdata/quick_perlmutter-a100.golden
func TestQuickOutputGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick_perlmutter-a100.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := experiments.Config{Seed: 2024, Quick: true}
	if _, err := run(cfg, "", "", &buf); err != nil {
		t.Fatal(err)
	}
	got := normalize(buf.String())
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("quick output diverged from golden at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("quick output diverged from golden: %d lines vs %d", len(gl), len(wl))
}

// TestRunMeasuresEveryTime: each run measures in its own Env, so
// nothing a run reports is served by an earlier run in the process.
// Three runs in a row each compute the same nonzero number of distinct
// measurements.
func TestRunMeasuresEveryTime(t *testing.T) {
	var misses []int64
	for range 3 {
		o := obs.New()
		env, err := experiments.NewEnv(experiments.EnvOptions{Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := run(experiments.Config{Seed: 2024, Quick: true, Env: env}, "", "", io.Discard); err != nil {
			t.Fatal(err)
		}
		misses = append(misses, o.Metrics.Snapshot().Counters["memo.misses"])
	}
	if misses[0] == 0 || misses[1] != misses[0] || misses[2] != misses[0] {
		t.Fatalf("memo.misses per run = %v, want the same nonzero count every run", misses)
	}
}

// TestQuickRunsOnEveryPlatform smoke-tests the non-default platforms
// end to end through the same entry point the CLI uses, and checks the
// extrapolations actually produce different numbers than the measured
// machine.
func TestQuickRunsOnEveryPlatform(t *testing.T) {
	outputs := map[string]string{}
	for _, name := range []string{"perlmutter-a100", "a100-80gb-500w", "h100-sxm"} {
		var buf bytes.Buffer
		cfg := experiments.Config{Platform: name, Seed: 2024, Quick: true}
		if _, err := run(cfg, "table1,fig6", "", &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		outputs[name] = normalize(buf.String())
	}
	for _, name := range []string{"a100-80gb-500w", "h100-sxm"} {
		if outputs[name] == outputs["perlmutter-a100"] {
			t.Fatalf("%s produced byte-identical output to perlmutter-a100; the platform is not being threaded through", name)
		}
	}
}
