package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: vasppower/internal/workloads
cpu: AMD EPYC 7J13 64-Core Processor
BenchmarkCapSweep/points=16/engine=incremental-8         	     212	   5500123 ns/op	    2048 B/op	      12 allocs/op
BenchmarkCapSweep/points=16/engine=incremental-8         	     210	   5612000 ns/op	    2050 B/op	      12 allocs/op
BenchmarkCapSweep/points=16/engine=oracle-8              	      24	  47500000 ns/op	  901234 B/op	    5120 allocs/op
BenchmarkCapSolverSolve/mode=mem-8                       	 6721490	       178.6 ns/op
PASS
ok  	vasppower/internal/workloads	12.3s
`

func TestParse(t *testing.T) {
	got := parse(sample)
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(got))
	}
	inc, ok := got["vasppower/internal/workloads.BenchmarkCapSweep/points=16/engine=incremental"]
	if !ok {
		t.Fatalf("incremental entry missing (GOMAXPROCS suffix not stripped, or pkg prefix lost?): %v", got)
	}
	if inc.NsOp != 5500123 {
		t.Errorf("repeated runs: ns/op = %g, want the minimum 5500123", inc.NsOp)
	}
	if inc.BOp != 2048 || inc.AllocsOp != 12 {
		t.Errorf("B/op, allocs/op = %g, %g, want 2048, 12", inc.BOp, inc.AllocsOp)
	}
	solve, ok := got["vasppower/internal/workloads.BenchmarkCapSolverSolve/mode=mem"]
	if !ok || solve.NsOp != 178.6 {
		t.Fatalf("fractional ns/op line without -benchmem columns: got %+v", solve)
	}
	if solve.BOp != 0 || solve.AllocsOp != 0 {
		t.Errorf("missing mem columns should read as 0, got %g, %g", solve.BOp, solve.AllocsOp)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	got := parse("BenchmarkBroken-8 notanumber ns/op\nrandom text\nBenchmark\n")
	if len(got) != 0 {
		t.Fatalf("noise lines parsed as benchmarks: %v", got)
	}
}

func TestCompare(t *testing.T) {
	const th = 0.10
	for _, tc := range []struct {
		name     string
		old, new result
		want     []string
	}{
		{"held", result{NsOp: 100, BOp: 1000}, result{NsOp: 105, BOp: 1090}, nil},
		{"slower", result{NsOp: 100, BOp: 1000}, result{NsOp: 120, BOp: 1000}, []string{"ns/op"}},
		{"more bytes", result{NsOp: 100, BOp: 1000}, result{NsOp: 100, BOp: 1200}, []string{"B/op"}},
		{"both", result{NsOp: 100, BOp: 1000}, result{NsOp: 150, BOp: 2000}, []string{"ns/op", "B/op"}},
		{"fewer bytes", result{NsOp: 100, BOp: 1000}, result{NsOp: 100, BOp: 500}, nil},
		{"zero-byte baseline", result{NsOp: 100}, result{NsOp: 100, BOp: 64}, nil},
	} {
		r := tc.new
		r.Name = "BenchmarkX"
		regs := compare(&r, &tc.old, th)
		if len(regs) != len(tc.want) {
			t.Fatalf("%s: regressions %q, want one per %q", tc.name, regs, tc.want)
		}
		for i, unit := range tc.want {
			if !strings.Contains(regs[i], unit) {
				t.Errorf("%s: regression %q does not name %s", tc.name, regs[i], unit)
			}
		}
		if tc.old.BOp > 0 && (r.OldBOp != tc.old.BOp || r.BRatio != tc.new.BOp/tc.old.BOp) {
			t.Errorf("%s: old_b_op %g, b_ratio %g not reported", tc.name, r.OldBOp, r.BRatio)
		}
	}
}
