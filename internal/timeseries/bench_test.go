package timeseries

import (
	"fmt"
	"testing"

	"vasppower/internal/rng"
)

// Micro-benchmarks for the trace hot path, with the retained
// reference implementations benchmarked alongside so one run yields
// the cursor-vs-reference comparison:
//
//	go test -bench 'Sample|EnergyBetween' -benchmem ./internal/timeseries

var (
	benchSeriesSink Series
	benchFloatSink  float64
)

// benchTrace builds a trace of ~n segments of 0.05–0.25 s each, at
// powers that rarely repeat.
func benchTrace(n int) *Trace {
	r := rng.New(77).Split("trace0")
	tr := &Trace{}
	for j := 0; j < n; j++ {
		tr.Append(tr.Duration()+0.05+r.Float64()*0.2, 50+float64(r.IntN(300)))
	}
	return tr
}

var benchSizes = []int{100, 1000, 10000}

func BenchmarkSample(b *testing.B) {
	// 0.1 s windows over a trace whose mean segment length is 0.175 s:
	// the high-rate Fig. 2 shape where windows and segments interleave.
	const interval = 0.1
	for _, n := range benchSizes {
		tr := benchTrace(n)
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
	tr := benchTrace(10000)
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
