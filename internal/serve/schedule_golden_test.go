package serve

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vasppower/internal/experiments"
)

var updateSchedule = flag.Bool("update", false, "rewrite testdata/schedule.golden's response bodies from the current build")

// scheduleGolden holds the pinned /v1/schedule corpus: each request
// on a line of its own after "> ", and the response body it is
// answered with (one JSON line) on the line after it.
const scheduleGolden = "testdata/schedule.golden"

// TestScheduleBodiesGolden pins /v1/schedule response bodies byte for
// byte: the three policies on a small cluster, profile-aware on a
// 1,800-node partition with and without a two-phase envelope, a run
// under a 900 kW budget, and one at DefaultMaxScheduleJobs. Each body
// is posted to a server on a fresh Env (real measurements); the first
// request whose answer differs is named. After an intentional change,
// rerun with -update and name the moved entries in CHANGES.md.
func TestScheduleBodiesGolden(t *testing.T) {
	raw, err := os.ReadFile(scheduleGolden)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines)%2 != 0 {
		t.Fatalf("%s: %d lines, want request/response pairs", scheduleGolden, len(lines))
	}
	env, err := experiments.NewEnv(experiments.EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Measure: env.Measure, MeasureGroup: env.MeasureGroup})
	var out bytes.Buffer
	for i := 0; i < len(lines); i += 2 {
		req, ok := strings.CutPrefix(lines[i], "> ")
		if !ok {
			t.Fatalf("%s:%d: want a request line starting with \"> \"", scheduleGolden, i+1)
		}
		w := post(t, s, "/v1/schedule", req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", req, w.Code, w.Body)
		}
		got := w.Body.String()
		if want := lines[i+1] + "\n"; got != want && !*updateSchedule {
			t.Fatalf("first differing request: %s\n got %s\nwant %s", req, got, want)
		}
		out.WriteString("> " + req + "\n" + got)
	}
	if *updateSchedule {
		if err := os.WriteFile(filepath.FromSlash(scheduleGolden), out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
