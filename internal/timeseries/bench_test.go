package timeseries

import (
	"fmt"
	"testing"

	"vasppower/internal/rng"
)

// Micro-benchmarks for the trace hot path, with the retained
// reference implementations benchmarked alongside so one run yields
// the merge-vs-reference comparison:
//
//	go test -bench 'Sum|Sample' -benchmem ./internal/timeseries
//
// The k=6 trace count mirrors a node's component set (CPU, memory,
// four GPUs); the shape=node rows also share the node's boundaries.

var (
	benchTraceSink  *Trace
	benchSeriesSink Series
	benchFloatSink  float64
)

// benchTraces builds k traces of ~n segments each whose boundaries
// rarely coincide — the worst case for the merge: almost every end is
// a breakpoint of its own.
func benchTraces(k, n int) []*Trace {
	root := rng.New(77)
	out := make([]*Trace, k)
	for i := range out {
		r := root.Split(fmt.Sprintf("trace%d", i))
		tr := &Trace{}
		for j := 0; j < n; j++ {
			tr.Append(tr.Duration()+0.05+r.Float64()*0.2, 50+float64(r.IntN(300)))
		}
		out[i] = tr
	}
	return out
}

// nodeTraces builds the six component traces of a node that recorded
// n steps in lockstep: every trace shares the step boundaries, the CPU
// trace holds one power through most steps (Append merges those runs
// away), DDR moves between a few activity levels, and the four GPUs
// draw cap-solved powers that change every step.
func nodeTraces(n int) []*Trace {
	r := rng.New(78)
	out := make([]*Trace, 6)
	for i := range out {
		out[i] = &Trace{}
	}
	end := 0.0
	for j := 0; j < n; j++ {
		end += 0.001 + r.Float64()*0.05
		cpu := 95.0
		if r.IntN(20) == 0 {
			cpu = 180 + float64(r.IntN(40))
		}
		out[0].Append(end, cpu)
		out[1].Append(end, 40+float64(r.IntN(3))*15)
		for g := 2; g < 6; g++ {
			out[g].Append(end, 60+r.Float64()*340)
		}
	}
	return out
}

var benchSizes = []int{100, 1000, 10000}

func BenchmarkSum(b *testing.B) {
	for _, n := range benchSizes {
		traces := benchTraces(6, n)
		b.Run(fmt.Sprintf("segs=%d/impl=merge", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchTraceSink = Sum(traces...)
			}
		})
		b.Run(fmt.Sprintf("segs=%d/impl=reference", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchTraceSink = sumReference(traces...)
			}
		})
	}
	// The shape of traces recorded on one clock (a node's power
	// scopes): boundaries shared across the traces, so most ends are
	// breakpoints of several cursors at once.
	traces := nodeTraces(2880)
	b.Run("shape=node/steps=2880/impl=merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchTraceSink = Sum(traces...)
		}
	})
	b.Run("shape=node/steps=2880/impl=reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchTraceSink = sumReference(traces...)
		}
	})
}

func BenchmarkSample(b *testing.B) {
	// 0.1 s windows over a trace whose mean segment length is 0.175 s:
	// the high-rate Fig. 2 shape where windows and segments interleave.
	const interval = 0.1
	for _, n := range benchSizes {
		tr := benchTraces(1, n)[0]
		b.Run(fmt.Sprintf("segs=%d/impl=cursor", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSeriesSink = tr.Sample(interval)
			}
		})
		b.Run(fmt.Sprintf("segs=%d/impl=reference", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSeriesSink = tr.sampleReference(interval)
			}
		})
	}
}

func BenchmarkEnergyBetween(b *testing.B) {
	tr := benchTraces(1, 10000)[0]
	dur := tr.Duration()
	b.Run("impl=search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchFloatSink = tr.EnergyBetween(dur*0.25, dur*0.25+1)
		}
	})
	b.Run("impl=reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchFloatSink = tr.energyBetweenReference(dur*0.25, dur*0.25+1)
		}
	})
}
