package timeseries

import (
	"math"
	"testing"

	"vasppower/internal/rng"
)

// Differential harness: the linear-time Sum/Sample/SampleInstant/
// EnergyBetween must agree with the retained reference
// implementations bit for bit — exact float equality, not tolerance —
// on randomized traces. Bit-identity is the property the byte-exact
// -quick golden output rests on, so these tests are deliberately
// stricter than the behavioral property tests.

// genDiffTrace builds one randomized trace for the differential
// harness, covering the shapes the optimized walks special-case:
// empty traces, single segments, equal-power runs (which Append
// merges away), micro-segments near the 1e-12 dedup tolerance, and
// offset-origin traces assembled directly from segments (the
// origin-normalization path in Sum; unreachable through Append, which
// always starts at 0).
func genDiffTrace(r *rng.Stream) *Trace {
	switch r.IntN(8) {
	case 0:
		return &Trace{}
	case 1:
		tr := &Trace{}
		tr.Append(0.1+r.Float64()*5, r.Float64()*400)
		return tr
	case 2:
		at := 0.5 + r.Float64()*3
		n := 1 + r.IntN(5)
		segs := make([]Segment, 0, n)
		for i := 0; i < n; i++ {
			d := 0.05 + r.Float64()*2
			segs = append(segs, Segment{Start: at, Dur: d, Power: r.Float64() * 300})
			at += d
		}
		return &Trace{segs: segs}
	default:
		tr := &Trace{}
		n := 1 + r.IntN(40)
		for i := 0; i < n; i++ {
			var d float64
			if r.IntN(10) == 0 {
				// Micro-segment: boundaries land within the dedup
				// tolerance of their neighbors.
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
			tr.Append(d, p)
		}
		return tr
	}
}

// tracesIdentical reports exact, bitwise segment equality.
func tracesIdentical(a, b *Trace) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, s := range a.segs {
		o := b.segs[i]
		if s.Start != o.Start || s.Dur != o.Dur || s.Power != o.Power {
			return false
		}
	}
	return true
}

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
	}
}

// TestSumMatchesReferenceAtTolerance puts a boundary exactly eps
// (1e-12) past the first breakpoint. The reference drops a boundary
// when v − prev ≤ eps, so the merge must drop it too — ≤, not <.
func TestSumMatchesReferenceAtTolerance(t *testing.T) {
	a := &Trace{}
	a.Append(1e-12, 100)
	a.Append(2, 50)
	b := &Trace{}
	b.Append(3, 10)
	for _, traces := range [][]*Trace{{a, b}, {b, a}} {
		if got, want := Sum(traces...), sumReference(traces...); !tracesIdentical(got, want) {
			t.Fatalf("Sum diverges from reference\n got: %+v\nwant: %+v", got.segs, want.segs)
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

func TestSampleInstantMatchesReference(t *testing.T) {
	root := rng.New(3003)
	for iter := 0; iter < 500; iter++ {
		r := rng.New(root.Uint64())
		tr := genDiffTrace(r)
		interval := 0.05 + r.Float64()*3
		got := tr.SampleInstant(interval)
		want := tr.sampleInstantReference(interval)
		if !seriesIdentical(got, want) {
			t.Fatalf("iter %d: SampleInstant(%v) diverges from reference on %+v",
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

// TestSumOfSummedIsStillIdentical runs the whole chain the node sensor
// uses — Sum, AddConstant, then Sample — against the reference chain.
func TestSumChainMatchesReference(t *testing.T) {
	root := rng.New(5005)
	for iter := 0; iter < 200; iter++ {
		r := rng.New(root.Uint64())
		traces := make([]*Trace, 1+r.IntN(5))
		for i := range traces {
			traces[i] = genDiffTrace(r)
		}
		offset := r.Float64() * 500
		got := Sum(traces...).AddConstant(offset).Sample(0.5)

		ref := sumReference(traces...)
		shifted := &Trace{}
		for _, s := range ref.segs {
			shifted.Append(s.Dur, s.Power+offset)
		}
		want := shifted.sampleReference(0.5)
		if !seriesIdentical(got, want) {
			t.Fatalf("iter %d: sensor chain diverges from reference", iter)
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
		start := tr.segs[0].Start
		var got float64
		for i, tm := range s.Times {
			a := float64(i) * interval
			cov := math.Min(tm, dur) - math.Max(a, start)
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
// (segment count, and whether the trace starts at an offset origin)
// and two bytes per segment (duration, power). Durations include
// micro-segments straddling the 1e-12 dedup tolerance; powers come
// from a coarse palette most of the time, so equal-power runs coalesce
// through Append. Offset-origin traces are assembled from segments,
// the only way to reach Sum's origin normalization. Missing bytes read
// as zero, so every input decodes.
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
	for i := range traces {
		h := next()
		n := int(h % 32)
		offset := h&0x80 != 0
		at := 0.0
		if offset {
			at = float64(next()%16)*0.25 + float64(next()%4)*4e-13
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
			if offset {
				tr.segs = append(tr.segs, Segment{Start: at, Dur: d, Power: p})
				at += d
			} else {
				tr.Append(d, p)
			}
		}
		traces[i] = tr
	}
	return traces
}

// FuzzSum is the differential target of the cursor merge: on any
// decoded set of traces, Sum — and SumInto into storage left over from
// a different sum — must equal sumReference bit for bit.
func FuzzSum(f *testing.F) {
	f.Add([]byte{1, 3, 4, 80, 4, 80, 8, 0})
	f.Add([]byte{3, 2, 0, 0, 0, 1, 0x84, 2, 1, 5, 3, 7, 200, 9, 1, 3, 0, 6, 1, 4, 8, 5})
	f.Add([]byte{7, 0x9f, 15, 3, 0, 0, 4, 0, 0, 1, 8, 0, 1, 1, 12, 250, 0, 0, 5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		traces := decodeFuzzTraces(data)
		want := sumReference(traces...)
		if got := Sum(traces...); !tracesIdentical(got, want) {
			t.Fatalf("Sum diverges from reference\n got: %+v\nwant: %+v", got.segs, want.segs)
		}
		dst := Sum(traces[len(traces)-1], traces[0])
		if got := SumInto(dst, traces...); !tracesIdentical(got, want) {
			t.Fatalf("SumInto over reused storage diverges from reference\n got: %+v\nwant: %+v", got.segs, want.segs)
		}
	})
}
