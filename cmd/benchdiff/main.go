// Command benchdiff compares two `go test -bench` outputs and fails
// on time/op or B/op regressions beyond a threshold. It is the repo's stand-in
// for benchstat in CI (no external dependencies):
//
//	benchdiff -new new.txt [-old old.txt] [-threshold 0.10] [-out report.json]
//
// Both files hold standard benchmark lines
// ("BenchmarkName-8  100  12345 ns/op  67 B/op  8 allocs/op");
// repeated -count runs of one benchmark collapse to the minimum ns/op
// (the least-noise estimate on a shared runner) and the minimum
// B/op and allocs/op. Names are compared with the trailing
// -GOMAXPROCS suffix stripped.
//
// The comparison is asymmetric by design: a benchmark present only in
// -new (a new benchmark this change introduces) or only in -old (one
// it removes) is reported but never a failure; only a matched name
// whose new time/op or new B/op exceeds old × (1 + threshold) fails
// the run. A zero B/op baseline (no -benchmem, or an allocation-free
// benchmark) has no ratio and is reported, not gated. A
// missing or empty -old file means "no baseline" (first run, or the
// merge base predates the benchmark): the report is still written and
// the exit status is 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type result struct {
	Name     string  `json:"name"`
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op,omitempty"`
	AllocsOp float64 `json:"allocs_op,omitempty"`

	// Baseline comparison, present when -old had the same name.
	OldNsOp float64 `json:"old_ns_op,omitempty"`
	Ratio   float64 `json:"ratio,omitempty"` // new/old time per op
	OldBOp  float64 `json:"old_b_op,omitempty"`
	BRatio  float64 `json:"b_ratio,omitempty"` // new/old bytes per op
}

type report struct {
	Threshold   float64   `json:"threshold"`
	Baseline    bool      `json:"baseline"` // an -old file was read
	Benchmarks  []*result `json:"benchmarks"`
	Regressions []string  `json:"regressions"`
}

func main() {
	oldPath := flag.String("old", "", "baseline `go test -bench` output (optional)")
	newPath := flag.String("new", "", "candidate `go test -bench` output (required)")
	threshold := flag.Float64("threshold", 0.10, "fail when new time/op or B/op exceeds old by this fraction")
	out := flag.String("out", "", "also write the JSON report to this file")
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -new is required")
		os.Exit(2)
	}

	news, err := parseFile(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	rep := report{Threshold: *threshold, Regressions: []string{}}
	var olds map[string]*result
	if *oldPath != "" {
		if olds, err = parseFile(*oldPath); err == nil {
			rep.Baseline = true
		} else if !os.IsNotExist(err) {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	}

	for _, name := range sortedNames(news) {
		r := news[name]
		if old, ok := olds[name]; ok {
			rep.Regressions = append(rep.Regressions, compare(r, old, *threshold)...)
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
	}

	enc, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(enc))
	if *out != "" {
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	}
	if len(rep.Regressions) > 0 {
		for _, r := range rep.Regressions {
			fmt.Fprintln(os.Stderr, "REGRESSION", r)
		}
		os.Exit(1)
	}
}

// compare records old's time/op and B/op in r and returns a line for
// each metric that grew by more than threshold.
func compare(r, old *result, threshold float64) []string {
	var regs []string
	if old.NsOp > 0 {
		r.OldNsOp = old.NsOp
		r.Ratio = r.NsOp / old.NsOp
		if r.Ratio > 1+threshold {
			regs = append(regs, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%, threshold %+.0f%%)",
				r.Name, old.NsOp, r.NsOp, (r.Ratio-1)*100, threshold*100))
		}
	}
	if old.BOp > 0 {
		r.OldBOp = old.BOp
		r.BRatio = r.BOp / old.BOp
		if r.BRatio > 1+threshold {
			regs = append(regs, fmt.Sprintf("%s: %.0f -> %.0f B/op (%+.1f%%, threshold %+.0f%%)",
				r.Name, old.BOp, r.BOp, (r.BRatio-1)*100, threshold*100))
		}
	}
	return regs
}

func parseFile(path string) (map[string]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(string(data)), nil
}

// parse extracts benchmark results, collapsing repeated runs of one
// name to the per-metric minimum. Names are qualified by the enclosing
// "pkg:" header — two packages may define benchmarks with the same
// name (both internal/core and internal/workloads have a
// BenchmarkCapSweep) and must not conflate.
func parse(text string) map[string]*result {
	out := make(map[string]*result)
	pkg := ""
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == "pkg:" {
			pkg = fields[1]
			continue
		}
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := stripProcs(fields[0])
		if pkg != "" {
			name = pkg + "." + name
		}
		r := &result{Name: name, NsOp: -1, BOp: -1, AllocsOp: -1}
		// fields[1] is the iteration count; after it come value/unit
		// pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsOp = v
			case "B/op":
				r.BOp = v
			case "allocs/op":
				r.AllocsOp = v
			}
		}
		if r.NsOp < 0 {
			continue
		}
		if prev, ok := out[name]; ok {
			prev.NsOp = minKeep(prev.NsOp, r.NsOp)
			prev.BOp = minKeep(prev.BOp, r.BOp)
			prev.AllocsOp = minKeep(prev.AllocsOp, r.AllocsOp)
			continue
		}
		if r.BOp < 0 {
			r.BOp = 0
		}
		if r.AllocsOp < 0 {
			r.AllocsOp = 0
		}
		out[name] = r
	}
	return out
}

func minKeep(a, b float64) float64 {
	if b < 0 {
		return a
	}
	if b < a {
		return b
	}
	return a
}

// stripProcs removes the trailing -GOMAXPROCS suffix go test appends.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func sortedNames(m map[string]*result) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ { // insertion sort; tiny n
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}
