package timeseries

import (
	"math"
	"slices"
	"testing"

	"vasppower/internal/rng"
)

// Differential harness: the linear-time Sum/Sample/EnergyBetween must agree with the retained reference
// implementations bit for bit — exact float equality, not tolerance —
// on randomized traces. Bit-identity is the property the byte-exact
// -quick golden output rests on, so these tests are deliberately
// stricter than the behavioral property tests.

// genDiffTrace builds one randomized trace for the differential
// harness, covering the shapes the optimized walks special-case:
// empty traces, single segments, equal-power runs (which Append
// merges away) and micro-segments a few picoseconds long, whose ends
// sit ulps from their neighbors'.
func genDiffTrace(r *rng.Stream) *Trace {
	switch r.IntN(8) {
	case 0:
		return &Trace{}
	case 1:
		tr := &Trace{}
		tr.Append(0.1+r.Float64()*5, r.Float64()*400)
		return tr
	default:
		tr := &Trace{}
		n := 1 + r.IntN(40)
		for i := 0; i < n; i++ {
			var d float64
			if r.IntN(10) == 0 {
				d = 1e-13 + r.Float64()*2e-12
			} else {
				d = 0.01 + r.Float64()*2
			}
			// A coarse power palette makes equal-power neighbors (and
			// therefore Append merging) common.
			p := float64(r.IntN(6)) * 80
			if r.IntN(3) == 0 {
				p = r.Float64() * 450
			}
			tr.Append(tr.Duration()+d, p)
		}
		return tr
	}
}

// genAlignedTraces builds k traces recorded on one clock, as a node
// records its components: every trace ends each step at the same
// instant, and equal-power runs merge differently in each trace.
func genAlignedTraces(r *rng.Stream, k int) []*Trace {
	traces := make([]*Trace, k)
	for i := range traces {
		traces[i] = &Trace{}
	}
	end := 0.0
	for n := 1 + r.IntN(40); n > 0; n-- {
		end += 0.01 + r.Float64()*2
		for i, tr := range traces {
			tr.Append(end, float64(r.IntN(3+i))*60)
		}
	}
	return traces
}

// tracesIdentical reports exact, bitwise segment equality.
func tracesIdentical(a, b *Trace) bool { return slices.Equal(a.segs, b.segs) }

// seriesIdentical reports exact, bitwise sample equality.
func seriesIdentical(a, b Series) bool {
	if len(a.Times) != len(b.Times) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Times {
		if a.Times[i] != b.Times[i] || a.Values[i] != b.Values[i] {
			return false
		}
	}
	return true
}

func TestSumMatchesReference(t *testing.T) {
	root := rng.New(1001)
	for iter := 0; iter < 500; iter++ {
		r := rng.New(root.Uint64())
		k := r.IntN(6) // 0..5 traces, including the empty sum
		traces := make([]*Trace, k)
		for i := range traces {
			traces[i] = genDiffTrace(r)
		}
		got := Sum(traces...)
		want := sumReference(traces...)
		if !tracesIdentical(got, want) {
			t.Fatalf("iter %d: Sum diverges from reference\n got: %+v\nwant: %+v",
				iter, got.segs, want.segs)
		}
		aligned := genAlignedTraces(r, 1+r.IntN(6))
		if got, want := Sum(aligned...), sumReference(aligned...); !tracesIdentical(got, want) {
			t.Fatalf("iter %d: Sum of aligned traces diverges from reference\n got: %+v\nwant: %+v",
				iter, got.segs, want.segs)
		}
	}
}

// TestSumMatchesReferenceAtTolerance: boundaries are instants compared
// with ==, with no tolerance, so two ends one ulp apart, or 1e-12 s
// apart, are two breakpoints, and the sliver between them sums the
// powers that hold there.
func TestSumMatchesReferenceAtTolerance(t *testing.T) {
	for _, x := range []float64{2, 1e-12} {
		next := math.Nextafter(x, 3)
		if x < 1 {
			next = 2 * x
		}
		a := &Trace{}
		a.Append(x, 100)
		a.Append(3, 50)
		b := &Trace{}
		b.Append(next, 10)
		b.Append(3, 20)
		want := []Segment{{x, 110}, {next, 60}, {3, 70}}
		for _, traces := range [][]*Trace{{a, b}, {b, a}} {
			got := Sum(traces...)
			if !slices.Equal(got.segs, want) {
				t.Fatalf("Sum = %+v, want %+v", got.segs, want)
			}
			if ref := sumReference(traces...); !tracesIdentical(got, ref) {
				t.Fatalf("Sum diverges from reference\n got: %+v\nwant: %+v", got.segs, ref.segs)
			}
		}
	}
}

func TestSampleMatchesReference(t *testing.T) {
	root := rng.New(2002)
	for iter := 0; iter < 500; iter++ {
		r := rng.New(root.Uint64())
		tr := genDiffTrace(r)
		interval := 0.05 + r.Float64()*3
		got := tr.Sample(interval)
		want := tr.sampleReference(interval)
		if !seriesIdentical(got, want) {
			t.Fatalf("iter %d: Sample(%v) diverges from reference on %+v",
				iter, interval, tr.segs)
		}
	}
}

func TestEnergyBetweenMatchesReference(t *testing.T) {
	root := rng.New(4004)
	for iter := 0; iter < 1000; iter++ {
		r := rng.New(root.Uint64())
		tr := genDiffTrace(r)
		dur := tr.Duration()
		// Windows inside, straddling, and fully outside the trace,
		// plus inverted (b <= a) windows.
		a := -1 + r.Float64()*(dur+2)
		b := a - 0.5 + r.Float64()*(dur+2)
		got := tr.EnergyBetween(a, b)
		want := tr.energyBetweenReference(a, b)
		if got != want {
			t.Fatalf("iter %d: EnergyBetween(%v,%v) = %v, reference %v on %+v",
				iter, a, b, got, want, tr.segs)
		}
	}
}

// TestSumChainMatchesReference runs the chain a summed power scope
// goes through — Sum, then Sample — against the reference chain.
func TestSumChainMatchesReference(t *testing.T) {
	root := rng.New(5005)
	for iter := 0; iter < 200; iter++ {
		r := rng.New(root.Uint64())
		traces := make([]*Trace, 1+r.IntN(5))
		for i := range traces {
			traces[i] = genDiffTrace(r)
		}
		got := Sum(traces...).Sample(0.5)
		want := sumReference(traces...).sampleReference(0.5)
		if !seriesIdentical(got, want) {
			t.Fatalf("iter %d: sum chain diverges from reference", iter)
		}
	}
}

// Property (satellite): the energy of Sample's windows — each value
// times the window length the trace actually covers — sums to the
// exact Trace.Energy() within ulp-scale tolerance. This is the
// integral-preservation guarantee the telemetry model relies on: the
// PM counters accumulate energy between polls, so window means must
// not create or destroy energy.
func TestSampleWindowEnergySumsToTraceEnergy(t *testing.T) {
	root := rng.New(6006)
	for iter := 0; iter < 300; iter++ {
		r := rng.New(root.Uint64())
		tr := genDiffTrace(r)
		if tr.Len() == 0 {
			continue
		}
		interval := 0.05 + r.Float64()*2
		s := tr.Sample(interval)
		if s.Len() == 0 {
			// Trace shorter than the sampler's ceil guard: no windows,
			// nothing to compare (pre-existing sampler behavior).
			continue
		}
		dur := tr.Duration()
		var got float64
		for i, tm := range s.Times {
			a := float64(i) * interval
			cov := math.Min(tm, dur) - a
			if cov > 0 {
				got += s.Values[i] * cov
			}
		}
		want := tr.Energy()
		// Ulp-scale fp tolerance plus the ≤1e-9·interval tail the
		// sampler's ceil guard may leave uncovered.
		tol := 1e-12*float64(s.Len()+1)*(1+math.Abs(want)) +
			tr.MaxPower()*interval*2e-9
		if math.Abs(got-want) > tol {
			t.Fatalf("iter %d: window energy %v vs exact %v (tol %v, interval %v)",
				iter, got, want, tol, interval)
		}
	}
}

// decodeFuzzTraces turns fuzz bytes into 1–8 finite traces. The first
// byte picks the trace count; each trace then reads a header byte
// (segment count, and whether the trace is recorded on trace 0's
// clock) and two bytes per segment (duration, power). A trace on
// trace 0's clock ends its segments at trace 0's instants, so the
// traces share boundaries bit for bit, as a node's do. Durations
// include micro-segments a few picoseconds long; powers come from a
// coarse palette most of the time, so equal-power runs coalesce
// through Append. Missing bytes read as zero, so every input decodes.
func decodeFuzzTraces(data []byte) []*Trace {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	traces := make([]*Trace, 1+int(next()%8))
	var clock []float64 // trace 0's segment ends, one per decoded segment
	for i := range traces {
		h := next()
		n := int(h % 32)
		aligned := h&0x80 != 0 && i > 0
		if aligned {
			n = min(n, len(clock))
		}
		tr := &Trace{}
		for j := 0; j < n; j++ {
			db, pb := next(), next()
			var d float64
			switch db % 4 {
			case 0:
				d = float64(db/4+1) * 1e-13 // up to 6.4e-12
			default:
				d = float64(db)*0.01 + 0.001
			}
			p := float64(pb%6) * 80
			if pb >= 192 {
				p = float64(pb) * 1.7
			}
			end := tr.Duration() + d
			if aligned {
				end = clock[j]
			}
			tr.Append(end, p)
			if i == 0 {
				clock = append(clock, end)
			}
		}
		traces[i] = tr
	}
	return traces
}

// FuzzSum is the differential target of the cursor merge: on any
// decoded set of traces, Sum must equal sumReference bit for bit.
func FuzzSum(f *testing.F) {
	f.Add([]byte{1, 3, 4, 80, 4, 80, 8, 0})
	f.Add([]byte{3, 2, 0, 0, 0, 1, 0x84, 2, 1, 5, 3, 7, 200, 9, 1, 3, 0, 6, 1, 4, 8, 5})
	f.Add([]byte{7, 0x9f, 15, 3, 0, 0, 4, 0, 0, 1, 8, 0, 1, 1, 12, 250, 0, 0, 5, 5, 5, 5})
	f.Add([]byte{3, 6, 1, 0, 4, 1, 5, 2, 9, 3, 0, 4, 2, 5, 0x86, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11, 0, 12, 0x83, 200, 1, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		traces := decodeFuzzTraces(data)
		if got, want := Sum(traces...), sumReference(traces...); !tracesIdentical(got, want) {
			t.Fatalf("Sum diverges from reference\n got: %+v\nwant: %+v", got.segs, want.segs)
		}
	})
}
