package vasppower_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/outputs/*.golden from the current build")

// outputCases are the program runs whose stdout is pinned byte for
// byte under testdata/outputs. They reach what the powerstudy -quick
// golden does not: the façade's Measure with Repeats > 1 (quickstart),
// the façade's Run (samplingrates), multi-repeat MILC under a cap
// (minivasp -milc) and the sweep and scheduler examples.
var outputCases = []struct {
	name string
	args []string
}{
	{"capsweep", nil},
	{"quickstart", nil},
	{"samplingrates", nil},
	{"scheduler", nil},
	{"minivasp", []string{"-milc", "-repeats", "3", "-cap", "250"}},
	{"omniquery", nil},
}

// TestProgramOutputsGolden builds the four examples, minivasp and
// omniquery, runs each and compares its stdout with
// testdata/outputs/<name>.golden. After an intentional change to an
// output, regenerate the files with
//
//	go test -run TestProgramOutputsGolden -update .
func TestProgramOutputsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six programs")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-buildvcs=false", "-o", bin+string(filepath.Separator),
		"./examples/capsweep", "./examples/quickstart", "./examples/samplingrates",
		"./examples/scheduler", "./cmd/minivasp", "./cmd/omniquery")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range outputCases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, c.name), c.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%v\n%s", err, stderr.Bytes())
			}
			path := filepath.Join("testdata", "outputs", c.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := stdout.String(); got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("output diverged from %s at line %d:\n got: %q\nwant: %q", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("output diverged from %s: %d lines vs %d", path, len(gl), len(wl))
			}
		})
	}
}

// flushCases are the commands that build a run environment, each run
// with -cache-dir. Table I measures nothing, so powerstudy runs fig3.
var flushCases = []struct {
	name string
	args []string
}{
	{"powerstudy", []string{"-quick", "-only", "fig3"}},
	{"minivasp", []string{"-bench", "PdO2"}},
	{"omniquery", nil},
	{"calibrate", nil},
	{"pmsched", []string{"-jobs", "8"}},
}

// timingLine is powerstudy's wall-clock figure, the one part of its
// output that differs between identical runs.
var timingLine = regexp.MustCompile(`regenerated in [0-9]+\.[0-9]+s`)

// TestCommandsFlushCache: every command that measures through a cache
// directory writes its entries there before it exits, and a second run
// over the directory prints the same stdout.
func TestCommandsFlushCache(t *testing.T) {
	if testing.Short() {
		t.Skip("builds five programs")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-buildvcs=false", "-o", bin+string(filepath.Separator),
		"./cmd/powerstudy", "./cmd/minivasp", "./cmd/omniquery", "./cmd/calibrate", "./cmd/pmsched")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range flushCases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			run := func() string {
				t.Helper()
				var stdout, stderr bytes.Buffer
				cmd := exec.Command(filepath.Join(bin, c.name), append(c.args, "-cache-dir", dir)...)
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\n%s", err, stderr.Bytes())
				}
				return timingLine.ReplaceAllString(stdout.String(), "regenerated in _s")
			}
			cold := run()
			entries, err := filepath.Glob(filepath.Join(dir, "*", "*.cache"))
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) == 0 {
				t.Fatal("no cache entry written")
			}
			if warm := run(); warm != cold {
				t.Fatalf("the run over the filled directory printed other output:\n%s\nwant:\n%s", warm, cold)
			}
		})
	}
}
