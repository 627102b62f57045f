// Command perfbench is the repository benchmark. It drives the shipped
// binaries (powerstudy, powerd, pmsched, calibrate) through one of four
// workloads and prints a single JSON result line:
//
//	bash perfbench/run.sh --workload study-cold --seed 1 --seconds 10 --trace 0
//
// run.sh builds the binaries from the checkout and then runs this
// program from the checkout root. With --trace 0 the run measures the
// end-to-end metrics with every observability flag off; with --trace 1
// it measures the per-layer metrics instead, by reading the spans and
// counters the program already emits (-trace, -manifest,
// serve.Server.Metrics) and by timing calls into each layer's public
// functions. Metric names and units come from BENCHMARK.json, so the
// result line always carries exactly the metrics the file declares.
//
// README.md in this directory explains the workloads, the metrics and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// env is one benchmark run's context.
type env struct {
	root    string        // checkout root (holds go.mod and cmd/)
	bin     string        // directory of the freshly built binaries
	work    string        // per-run scratch directory, removed at exit
	seed    uint64        // the benchmark seed every input derives from
	seconds time.Duration // length of the measured window
	trace   bool          // per-layer run instead of the end-to-end run
	log     io.Writer     // human-readable report (stderr)
}

// outcome is what a workload reports: operation counts, correctness
// gate failures, and metric values by name.
type outcome struct {
	attempted, failed int
	gateErrs          []string
	m                 map[string]float64
}

func newOutcome() *outcome { return &outcome{m: map[string]float64{}} }

// op records one attempted operation. A failure is recorded by gate,
// or for a refused request by counting it in failed.
func (o *outcome) op() { o.attempted++ }

// gate records a correctness-gate failure. The operation it concerns
// counts as failed and the run reports correct=false.
func (o *outcome) gate(format string, args ...any) {
	o.failed++
	o.gateErrs = append(o.gateErrs, fmt.Sprintf(format, args...))
}

type workloadFunc func(e *env) (*outcome, error)

var workloadFuncs = map[string]workloadFunc{
	"study-cold": studyCold,
	"study-warm": studyWarm,
	"powerd-mix": powerdMix,
	"facility":   facility,
}

// metricSpec is one metric declaration of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

func loadBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult checks that the workload produced exactly the declared
// metrics and attaches their units.
func buildResult(o *outcome, specs []metricSpec) (resultLine, error) {
	res := resultLine{
		Correct:   len(o.gateErrs) == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := o.m[s.Name]
		if !ok {
			return res, fmt.Errorf("workload did not measure declared metric %q", s.Name)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	var extra []string
	for name := range o.m {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return res, fmt.Errorf("workload measured undeclared metrics %v", extra)
	}
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "workload name (study-cold, study-warm, powerd-mix, facility)")
	seed := flag.Uint64("seed", 1, "benchmark seed; every generated input derives from it")
	seconds := flag.Float64("seconds", 10, "length of the measured window, seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics with tracing off, 1 = per-layer metrics from a traced run")
	root := flag.String("root", ".", "checkout root")
	bin := flag.String("bin", ".bench_build/bin", "directory of the built binaries")
	capacity := flag.Bool("capacity", false, "print the powerd-mix closed-loop capacity instead of running a workload")
	flag.Parse()

	if err := run(*workload, *capacity, *seed, *seconds, *trace, *root, *bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, capacity bool, seed uint64, seconds float64, trace int, root, bin string) error {
	fn, ok := workloadFuncs[workload]
	if !ok && !capacity {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	bf, err := loadBenchmarkFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	specs := bf.EndToEnd
	if trace == 1 {
		specs = bf.PerLayer
	}
	if !filepath.IsAbs(bin) {
		bin = filepath.Join(root, bin)
	}
	workDir := filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	e := &env{
		root: root, bin: bin, work: work, seed: seed,
		seconds: time.Duration(seconds * float64(time.Second)),
		trace:   trace == 1, log: os.Stderr,
	}
	if capacity {
		return e.mixCapacity()
	}
	o, err := fn(e)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	if !e.trace {
		o.m["ok_ratio"] = 0
		if o.attempted > 0 {
			o.m["ok_ratio"] = float64(o.attempted-o.failed) / float64(o.attempted)
		}
	}
	res, err := buildResult(o, specs)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	for _, g := range o.gateErrs {
		fmt.Fprintln(e.log, "GATE FAILED:", g)
	}
	printReport(e.log, workload, res, specs)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printReport writes the metric table (the layer table on a traced run)
// to w, one metric per line in declaration order.
func printReport(w io.Writer, workload string, res resultLine, specs []metricSpec) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	width := 0
	for _, s := range specs {
		width = max(width, len(s.Name))
	}
	for _, s := range specs {
		v := res.Metrics[s.Name]
		fmt.Fprintf(w, "  %-*s %14.6g %s\n", width, s.Name, v.Value, strings.TrimSpace(v.Unit))
	}
}
