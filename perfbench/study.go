package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"

	"vasppower/internal/obs"
)

// The study workloads run `powerstudy -quick`, the command that
// regenerates the paper's Table I and Figs 1-13 plus the extension
// studies. It takes no generated input: users run it at its default
// seed, the only seed with a pinned golden output, so every run here is
// that exact command and every run's stdout is held to the golden byte
// for byte. The study workloads do not use the benchmark seed. (The
// -quick work also varies by up to a third between seeds, mostly in the
// scheduler ablation, which would swamp the run-to-run spread.)
//
// study-warm runs the same command limited (-only) to the runners whose
// time goes through the measurement cache. It leaves out fig2, exta,
// extb and extc, whose own uncached work (raw traces, the scheduler
// ablation's catalog, repeat studies) is about 0.32 s of a 0.37 s warm
// -quick run and would hide the cache's read path. Those four still
// run, cold, in study-cold.
//
// -parallel is fixed at 1: it is at most nproc on any machine, it keeps
// two CPU-bound workers from fighting over a shared host, and it makes
// every "measure" span nest inside exactly one "experiment" span, so
// self times need no guessing.
const (
	goldenPath    = "cmd/powerstudy/testdata/quick_perlmutter-a100.golden"
	goldenSeed    = 2024 // powerstudy's default seed
	studyLimitSec = 10   // latency limit of one -quick run, for goodput_rps

	// Nominal run times, which set how many runs fill the measured
	// window. warmRun is a warm run's time on a 2-vCPU Xeon VM. A cold
	// run there takes 1.2-1.6 s; coldRun is set lower so that a 20 s
	// window holds 20 runs, the fewest that support a tail percentile
	// (p50) instead of the noisier slowest run.
	coldRun = 1000 * time.Millisecond
	warmRun = 70 * time.Millisecond
)

// warmOnly is study-warm's -only list: every -quick runner except
// warmSkipped.
const warmOnly = "table1,fig1,fig3,fig4,fig5,fig6,fig7,fig8,fig9,fig10,fig11,fig12,fig13,extd,exte,extf,extg"

// warmSkipped are the runners study-warm leaves out, by the label of
// their timing line.
var warmSkipped = []string{"fig2", "exta", "extb", "extc"}

var timingLine = regexp.MustCompile(`regenerated in [0-9]+\.[0-9]+s`)

// normalize strips the wall-clock figures from powerstudy's output,
// the only content that differs between identical runs.
func normalize(b []byte) string {
	return timingLine.ReplaceAllString(string(b), "regenerated in _s")
}

func quickArgs(extra ...string) []string {
	return append([]string{"-quick", "-parallel", "1"}, extra...)
}

// goldenWithout is the golden output less the sections of the skipped
// runners: what powerstudy prints when -only selects the others. Each
// runner's section starts with a separator line and ends with its
// "[<label> regenerated in ...]" line.
func goldenWithout(golden string, skipped []string) string {
	sep := strings.Repeat("=", 78) + "\n"
	parts := strings.Split(golden, sep)
	var b strings.Builder
	b.WriteString(parts[0])
sections:
	for _, p := range parts[1:] {
		for _, name := range skipped {
			if strings.Contains(p, "["+name+" regenerated in") {
				continue sections
			}
		}
		b.WriteString(sep)
		b.WriteString(p)
	}
	return b.String()
}

// studyRunners are the -quick experiment units, by the name their
// "experiment" span carries. A unit not in the list is counted under
// experiments.other_s.
var studyRunners = []string{
	"table1", "fig1", "fig2", "fig3", "fig4/5", "fig6", "fig7", "fig8", "fig9",
	"fig10/12", "fig11", "fig13", "exta", "extb", "extc", "extd", "exte", "extf", "extg",
}

func runnerMetric(name string) string {
	return "experiments." + strings.ReplaceAll(name, "/", "-") + "_s"
}

// studyRuns collects timed -quick invocations, each checked against the
// golden output.
type studyRuns struct {
	golden   string
	walls    []float64
	okWithin int
	rssKB    int64
}

// newStudyRuns reads the golden output, less the sections of the
// skipped runners.
func (e *env) newStudyRuns(skipped []string) (*studyRuns, error) {
	golden, err := os.ReadFile(filepath.Join(e.root, goldenPath))
	if err != nil {
		return nil, err
	}
	return &studyRuns{golden: goldenWithout(normalize(golden), skipped)}, nil
}

func (s *studyRuns) record(o *outcome, r procRun, err error, label string) {
	o.op()
	if err != nil {
		o.gate("%s: %v", label, err)
		return
	}
	s.walls = append(s.walls, r.wall)
	s.rssKB = max(s.rssKB, r.rssKB)
	if normalize(r.stdout) != s.golden {
		o.gate("%s: stdout differs from %s", label, goldenPath)
		return
	}
	if r.wall <= studyLimitSec {
		s.okWithin++
	}
}

// studyCold is `powerstudy -quick` with no cache directory: every
// measurement is computed.
func studyCold(e *env) (*outcome, error) {
	o := newOutcome()
	runs, err := e.newStudyRuns(nil)
	if err != nil {
		return nil, err
	}
	if e.trace {
		return o, e.studyTraced(o, runs, quickArgs(), "", "", coldRun)
	}
	setup, err := e.setupVersion("powerstudy")
	if err != nil {
		return nil, err
	}
	err = e.loop(coldRun, func(i int) error {
		r, err := e.run("powerstudy", quickArgs()...)
		runs.record(o, r, err, fmt.Sprintf("cold run %d", i))
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.m["setup_s"] = setup
	e.cliMetrics(o, runs.walls, runs.okWithin, runs.rssKB)
	return o, e.paperErr(o)
}

// studyWarm runs the cached -quick runners against a cache directory
// filled during set-up: every measurement is a disk-cache hit.
func studyWarm(e *env) (*outcome, error) {
	o := newOutcome()
	fills, err := e.newStudyRuns(warmSkipped)
	if err != nil {
		return nil, err
	}
	// Set-up is the same command run cold, which fills the cache, made
	// three times into fresh directories; the last directory serves the
	// timed runs.
	// On a traced run the last fill writes a manifest, whose diskcache
	// counters show the write path.
	var dir, fillManifest string
	for k := 0; k < 3; k++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(e.work, fmt.Sprintf("cache-%d", k))
		args := quickArgs("-only", warmOnly, "-cache-dir", dir)
		if e.trace && k == 2 {
			fillManifest = filepath.Join(e.work, "fill-manifest.json")
			args = append(args, "-manifest", fillManifest)
		}
		r, err := e.run("powerstudy", args...)
		fills.record(o, r, err, fmt.Sprintf("cache fill %d", k))
	}
	// Flush the fills' writes now, so the timed runs do not compete
	// with their writeback.
	syscall.Sync()
	runs := &studyRuns{golden: fills.golden}
	args := quickArgs("-only", warmOnly, "-cache-dir", dir)
	if e.trace {
		return o, e.studyTraced(o, runs, args, dir, fillManifest, warmRun)
	}
	err = e.loop(warmRun, func(i int) error {
		r, err := e.run("powerstudy", args...)
		runs.record(o, r, err, fmt.Sprintf("warm run %d", i))
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.m["setup_s"] = median(fills.walls)
	e.cliMetrics(o, runs.walls, runs.okWithin, max(runs.rssKB, fills.rssKB))
	return o, e.paperErr(o)
}

// span is one line of a -trace file.
type span struct {
	Span     string    `json:"span"`
	Start    time.Time `json:"start"`
	MS       float64   `json:"ms"`
	Name     string    `json:"name"`
	Bench    string    `json:"bench"`
	Nodes    int       `json:"nodes"`
	Repeats  int       `json:"repeats"`
	CapW     float64   `json:"cap_w"`
	CacheHit bool      `json:"cache_hit"`
}

// iv returns the span's interval in seconds relative to t0.
func (s span) iv(t0 time.Time) interval {
	start := s.Start.Sub(t0).Seconds()
	return interval{start, start + s.MS/1000}
}

func readSpans(path string) ([]span, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []span
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, s)
	}
	return spans, sc.Err()
}

func readManifest(path string) (obs.Manifest, error) {
	var m obs.Manifest
	raw, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	if m.Metrics == nil {
		m.Metrics = &obs.Snapshot{}
	}
	return m, nil
}

// attributeStudy splits one traced run's wall time into layer self
// times: each runner's own time (its span minus the measure spans
// inside it), computed and cache-hit measure time, and what no span
// covers (process start and exit, flag parsing, printing).
func attributeStudy(spans []span, wall float64) map[string]float64 {
	m := map[string]float64{"experiments.other_s": 0}
	for _, name := range studyRunners {
		m[runnerMetric(name)] = 0
	}
	if len(spans) == 0 {
		m["unattributed_s"] = wall
		return m
	}
	t0 := spans[0].Start
	var measures, all []interval
	for _, s := range spans {
		all = append(all, s.iv(t0))
		if s.Span == "measure" {
			measures = append(measures, s.iv(t0))
			if s.CacheHit {
				m["experiments.measure_hit_s"] += s.MS / 1000
				m["experiments.measure_hits"]++
			} else {
				m["experiments.measure_s"] += s.MS / 1000
				m["experiments.measures"]++
			}
		}
	}
	for _, s := range spans {
		if s.Span != "experiment" {
			continue
		}
		name := runnerMetric(s.Name)
		if _, ok := m[name]; !ok {
			name = "experiments.other_s"
		}
		m[name] += selfTime(s.iv(t0), measures)
	}
	m["unattributed_s"] = wall - covered(interval{-1e9, 1e9}, all)
	return m
}

// studyTraced alternates untraced runs of powerstudy with base args
// and runs under -trace and -manifest for the measured window, then
// attributes the traced runs' time to layers and replays the computed
// measurements through the engine's layers one at a time. cacheDir is
// the -cache-dir base names, if any.
func (e *env) studyTraced(o *outcome, runs *studyRuns, base []string, cacheDir, fillManifest string, nominal time.Duration) error {
	var plain, traced []float64
	var attrs []map[string]float64
	var lastSpans []span
	var lastMan obs.Manifest
	err := e.loop(nominal, func(i int) error {
		if i%2 == 0 {
			r, err := e.run("powerstudy", base...)
			runs.record(o, r, err, fmt.Sprintf("untraced run %d", i))
			if err == nil {
				plain = append(plain, r.wall)
			}
			return nil
		}
		tr := filepath.Join(e.work, fmt.Sprintf("trace-%d.jsonl", i))
		mf := filepath.Join(e.work, fmt.Sprintf("manifest-%d.json", i))
		r, err := e.run("powerstudy", append(append([]string(nil), base...), "-trace", tr, "-manifest", mf)...)
		runs.record(o, r, err, fmt.Sprintf("traced run %d", i))
		if err != nil {
			return nil
		}
		spans, err := readSpans(tr)
		if err != nil {
			return err
		}
		man, err := readManifest(mf)
		if err != nil {
			return err
		}
		traced = append(traced, r.wall)
		attrs = append(attrs, attributeStudy(spans, r.wall))
		lastSpans, lastMan = spans, man
		return nil
	})
	if err != nil {
		return err
	}
	if len(attrs) == 0 {
		return fmt.Errorf("no traced run completed")
	}
	l := newLayers()
	for name := range attrs[0] {
		vals := make([]float64, len(attrs))
		for i, a := range attrs {
			vals[i] = a[name]
		}
		l.m[name] = median(vals)
	}
	l.m["experiments.unattributed_s"] = l.m["unattributed_s"]
	l.m["trace_overhead_pct"] = (median(traced)/median(plain) - 1) * 100
	fmt.Fprintf(e.log, "traced wall %.4f s (n=%d), untraced %.4f s (n=%d)\n",
		median(traced), len(traced), median(plain), len(plain))

	c := lastMan.Metrics.Counters
	if cacheDir != "" && (c["diskcache.misses"] != 0 || c["diskcache.hits"] == 0) {
		o.gate("warm run recomputed: diskcache hits=%d misses=%d", c["diskcache.hits"], c["diskcache.misses"])
	}
	if c["diskcache.corrupt"] != 0 {
		o.gate("diskcache.corrupt=%d", c["diskcache.corrupt"])
	}
	l.fromSnapshot(*lastMan.Metrics, lastMan.Workers, lastMan.WallSeconds)
	if fillManifest != "" {
		fm, err := readManifest(fillManifest)
		if err != nil {
			return err
		}
		l.m["diskcache.bytes_written"] = float64(fm.Metrics.Counters["diskcache.bytes_written"])
	}

	var computed, all []measureSpec
	for _, s := range lastSpans {
		if s.Span != "measure" {
			continue
		}
		ms := measureSpec{bench: s.Bench, nodes: s.Nodes, repeats: s.Repeats, capW: s.CapW, seed: goldenSeed}
		all = append(all, ms)
		if !s.CacheHit {
			computed = append(computed, ms)
		}
	}
	if err := l.replay(computed); err != nil {
		return err
	}
	if cacheDir != "" {
		missing, err := l.timeDiskCache(cacheDir, filepath.Join(e.work, "put-store"), all)
		if err != nil {
			return err
		}
		fmt.Fprintf(e.log, "diskcache timing: %d keys not in the store\n", missing)
	}
	for k, v := range l.m {
		o.m[k] = v
	}
	return nil
}
