package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vasppower/internal/obs"
)

// TestOutputGolden pins pmsched's stdout byte for byte for the default
// 8-node run, for 5,000- and 20,000-job facility-preset runs, and for
// a 10,000-job preset run under a 900 kW budget. The preset's 2 MW
// budget never binds (peak reservation stays near 1.1 MW); at 900 kW
// the queue backs up behind the budget thousands of times, so that
// golden is the one that pins packing under contention. The
// policies run concurrently and share the process-wide measurement
// cache, so under -race this is also the concurrency check of that
// path. The simulations write each outcome at the mix's rank for its
// job. job0000–job9999 rank in arrival order; from job10000 on they do
// not ("job10000" < "job2000"), so only the 20,000-job run's ranks
// are a real permutation (a merge of the 4- and 5-digit IDs), and it
// is the golden that pins the sums over that order. Regenerate after
// an intentional change with:
//
//	go run ./cmd/pmsched > cmd/pmsched/testdata/default.golden
//	go run ./cmd/pmsched -preset facility -jobs 5000 > cmd/pmsched/testdata/facility-5000.golden
//	go run ./cmd/pmsched -preset facility -jobs 20000 > cmd/pmsched/testdata/facility-20000.golden
//	go run ./cmd/pmsched -preset facility -jobs 10000 -budget-kw 900 > cmd/pmsched/testdata/facility-budget900.golden
func TestOutputGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"default.golden", nil},
		{"facility-5000.golden", []string{"-preset", "facility", "-jobs", "5000"}},
		{"facility-20000.golden", []string{"-preset", "facility", "-jobs", "20000"}},
		{"facility-budget900.golden", []string{"-preset", "facility", "-jobs", "10000", "-budget-kw", "900"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr, nil); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			if got := stdout.String(); got != string(want) {
				t.Fatalf("stdout diverged from %s:\n got:\n%s\nwant:\n%s", tc.golden, got, want)
			}
		})
	}
}

// TestManifestCountsEveryPolicy checks the sched.* counters the
// facility smoke job asserts: with the policies simulated at once,
// every job of every policy is still counted exactly once.
func TestManifestCountsEveryPolicy(t *testing.T) {
	const jobs = 2000
	mf := filepath.Join(t.TempDir(), "manifest.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-preset", "facility", "-jobs", "2000", "-manifest", mf}, &stdout, &stderr, nil); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(mf)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
			Gauges   map[string]int64 `json:"gauges"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	c := m.Metrics.Counters
	if c["sched.jobs_started"] != 3*jobs || c["sched.jobs_completed"] != 3*jobs || c["sched.jobs_dropped"] != 0 {
		t.Fatalf("counters %v, want %d started and completed, 0 dropped", c, 3*jobs)
	}
	if c["sched.packing_passes"] <= 0 || m.Metrics.Gauges["sched.peak_reserved_w"] <= 0 {
		t.Fatalf("no packing passes or peak reservation recorded: %v %v", c, m.Metrics.Gauges)
	}
}

// TestUsageErrors pins the exit status of malformed invocations.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-preset", "campus"},
		{"-envelope", "3600"},
		{"-no-such-flag"},
		{"-jobs", "-5"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr, nil); code != 2 {
			t.Errorf("%s: exit %d, want 2", strings.Join(args, " "), code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote %q to stdout", strings.Join(args, " "), stdout.String())
		}
	}
}

// TestSimulationError pins the failure path of the concurrent policy
// loop: a run the simulator rejects exits 1 with the simulation's
// error and prints no table. The cases are a mix the cluster cannot
// hold (2-node jobs on one node), arrivals that are not finite (a NaN
// mean inter-arrival) and a NaN or negative budget.
func TestSimulationError(t *testing.T) {
	for _, tc := range []struct {
		args []string
		frag string
	}{
		{[]string{"-nodes", "1", "-jobs", "40"}, "needs 2 nodes, cluster has 1"},
		{[]string{"-arrival", "NaN", "-jobs", "3"}, "sched: job job0000 with non-finite arrival NaN"},
		{[]string{"-budget-kw", "NaN", "-jobs", "3"}, "sched: invalid budget NaN"},
		{[]string{"-budget-kw", "-1", "-jobs", "3"}, "sched: invalid budget -1000"},
	} {
		name := strings.Join(tc.args, " ")
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr, nil); code != 1 {
			t.Fatalf("%s: exit %d, want 1 (stderr %q)", name, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.frag) {
			t.Fatalf("%s: stderr %q does not carry the simulation error %q", name, stderr.String(), tc.frag)
		}
		if strings.Contains(stdout.String(), "policy") {
			t.Fatalf("%s: table printed despite the failure:\n%s", name, stdout.String())
		}
	}
}

// TestRejectedRunMeasuresNothing: a configuration the simulator
// rejects exits 1 before the catalog prefetch measures anything. No
// manifest is written on that path, so the test counts the Env's
// cache lookups through a registry of its own; a run that simulates
// is the control that the count sees the prefetch.
func TestRejectedRunMeasuresNothing(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		frag string
	}{
		{[]string{"-jobs", "3"}, 0, ""},
		{[]string{"-preset", "facility", "-budget-kw", "NaN"}, 1, "sched: invalid budget NaN"},
		{[]string{"-preset", "facility", "-jobs", "20000", "-budget-kw", "700"},
			1, "budget 700000 W is below the idle reservation of 828000 W (1800 nodes × 460 W)"},
	} {
		name := strings.Join(tc.args, " ")
		reg := obs.NewRegistry()
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr, reg); code != tc.code {
			t.Fatalf("%s: exit %d, want %d (stderr %q)", name, code, tc.code, stderr.String())
		}
		lookups := reg.Snapshot().Counters["memo.lookups"]
		if tc.code == 0 {
			if lookups == 0 {
				t.Fatalf("%s: a simulated run counted no measure lookups", name)
			}
			continue
		}
		if lookups != 0 {
			t.Fatalf("%s: rejected run looked up %d measures", name, lookups)
		}
		if !strings.Contains(stderr.String(), tc.frag) {
			t.Fatalf("%s: stderr %q lacks %q", name, stderr.String(), tc.frag)
		}
		if stdout.Len() != 0 {
			t.Fatalf("%s: rejected run wrote %q to stdout", name, stdout.String())
		}
	}
}
