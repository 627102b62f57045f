package timeseries

import (
	"math"
	"testing"

	"vasppower/internal/rng"
)

// Differential harness: the linear-time Sample/EnergyBetween must agree
// with the retained reference implementations bit for bit — exact float equality, not tolerance —
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

// decodeFuzzTrace turns fuzz bytes into one finite trace: a header
// byte (the segment count) and two bytes per segment (duration,
// power). Durations include micro-segments a few picoseconds long;
// powers come from a coarse palette most of the time, so equal-power
// runs coalesce through Append. Missing bytes read as zero, so every
// input decodes.
func decodeFuzzTrace(data []byte) *Trace {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	tr := &Trace{}
	for n := int(next() % 32); n > 0; n-- {
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
		tr.Append(tr.Duration()+d, p)
	}
	return tr
}
