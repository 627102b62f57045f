package vasppower_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
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
