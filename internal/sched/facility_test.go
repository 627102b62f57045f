package sched

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"vasppower/internal/core"
	"vasppower/internal/dft/method"
	"vasppower/internal/obs"
)

// fakeMeasure is a deterministic, solver-free measurement function for
// facility-scale tests: profiles derive arithmetically from the spec,
// so a 10k-job simulation costs microseconds of "measurement".
func fakeMeasure(spec core.MeasureSpec) (core.JobProfile, error) {
	rt := 120 + 17*float64(len(spec.Bench.Name)%7) + 300*float64(spec.Nodes)
	if spec.CapW > 0 {
		rt *= 1 + 50/spec.CapW
	}
	mean := 1000.0 + 25*float64(len(spec.Bench.Name))
	if spec.CapW > 0 && mean > 4*spec.CapW+600 {
		mean = 4*spec.CapW + 600
	}
	var p core.JobProfile
	p.Name = spec.Bench.Name
	p.Runtime = rt
	p.EnergyJ = rt * mean * float64(spec.Nodes)
	p.NodeTotal.Summary.Mean = mean
	return p, nil
}

func fakeCatalog(seed uint64) *Catalog {
	cat := NewCatalog(seed)
	cat.SetMeasure(fakeMeasure)
	return cat
}

// TestSimulateMatchesOracle is the differential gate for the
// incremental loop: across policies, budgets, and jitter, the Result
// must be bit-identical (reflect.DeepEqual, no tolerances) to the
// retained pre-refactor implementation in oracle_test.go.
func TestSimulateMatchesOracle(t *testing.T) {
	policies := []Policy{
		NoCap{NodeTDP: 2350},
		UniformCap{Watts: 200, HostWatts: 350},
		DefaultProfileAware(),
	}
	jobs := smallMix(24, 7)
	for _, p := range policies {
		for _, budget := range []float64{0, 8 * 1100} {
			for _, jitterSeed := range []uint64{0, 42} {
				name := fmt.Sprintf("%s/budget=%.0f/jitter=%d", p.Name(), budget, jitterSeed)
				cfgA := simCfg(p, budget, NewCatalog(1))
				cfgB := simCfg(p, budget, NewCatalog(1))
				cfgA.JitterSeed = jitterSeed
				cfgB.JitterSeed = jitterSeed
				got, err := Simulate(cfgA, jobs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := simulateOracle(cfgB, jobs)
				if err != nil {
					t.Fatalf("%s: oracle: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: incremental loop diverged from oracle:\n got %+v\nwant %+v", name, got, want)
				}
			}
		}
	}

	// Repeated IDs in a mix longer than sort's insertion-sort cutoff
	// (12), with jitter and drops: both loops must order outcomes by
	// ID and then arrival sequence.
	failing := func(spec core.MeasureSpec) (core.JobProfile, error) {
		if spec.Bench.Name == "CuC_vdw" {
			return core.JobProfile{}, fmt.Errorf("no profile for %s", spec.Bench.Name)
		}
		return fakeMeasure(spec)
	}
	dups := SyntheticJobMix(40, 30, 11)
	for i := range dups {
		dups[i].ID = fmt.Sprintf("dup%d", i%5)
	}
	for _, p := range policies {
		catA, catB := NewCatalog(1), NewCatalog(1)
		catA.SetMeasure(failing)
		catB.SetMeasure(failing)
		cfgA := simCfg(p, 8*1100, catA)
		cfgB := simCfg(p, 8*1100, catB)
		cfgA.JitterSeed = 42
		cfgB.JitterSeed = 42
		got, err := Simulate(cfgA, dups)
		if err != nil {
			t.Fatalf("%s/dups: %v", p.Name(), err)
		}
		want, err := simulateOracle(cfgB, dups)
		if err != nil {
			t.Fatalf("%s/dups: oracle: %v", p.Name(), err)
		}
		if got.Dropped == 0 || got.Completed <= 12 {
			t.Fatalf("%s/dups: %d completed, %d dropped; the case needs drops and more than 12 outcomes", p.Name(), got.Completed, got.Dropped)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/dups: incremental loop diverged from oracle:\n got %+v\nwant %+v", p.Name(), got, want)
		}
	}

	// Exact instants under a binding budget: arrivals on a 15-second
	// grid (every other one on a cycle boundary, several sharing an
	// instant) and whole-second runtimes in multiples of 15, so
	// completions land on cycle boundaries and on arrivals. Every
	// same-instant tie between arrivals, completions and passes that
	// the event order could get wrong occurs here.
	exact := smallMix(48, 3)
	for i := range exact {
		exact[i].Arrival = 15 * float64(i-i%3+i%2)
	}
	for _, p := range policies {
		catA, catB := NewCatalog(1), NewCatalog(1)
		catA.SetMeasure(exactMeasure)
		catB.SetMeasure(exactMeasure)
		budget := 8*460 + 4000.0 // two uncapped 1-node jobs, or a few capped ones
		got, err := Simulate(simCfg(p, budget, catA), exact)
		if err != nil {
			t.Fatalf("%s/exact: %v", p.Name(), err)
		}
		want, err := simulateOracle(simCfg(p, budget, catB), exact)
		if err != nil {
			t.Fatalf("%s/exact: oracle: %v", p.Name(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/exact: incremental loop diverged from oracle:\n got %+v\nwant %+v", p.Name(), got, want)
		}
		arrivals := map[float64]bool{}
		for _, j := range exact {
			arrivals[j.Arrival] = true
		}
		var onArrival, onCycle, waited int
		for _, o := range got.Outcomes {
			if arrivals[o.End] {
				onArrival++
			}
			if math.Mod(o.End, CycleSeconds) == 0 {
				onCycle++
			}
			if o.Wait > 0 {
				waited++
			}
		}
		if onArrival == 0 || onCycle == 0 || waited < len(exact)/4 {
			t.Fatalf("%s/exact: %d completions on arrivals, %d on cycle boundaries, %d jobs waited; the case needs all three",
				p.Name(), onArrival, onCycle, waited)
		}
	}
}

// exactMeasure is fakeMeasure with whole-second runtimes in multiples
// of 15 s, capped runs 15 or 30 s slower than the baseline.
func exactMeasure(spec core.MeasureSpec) (core.JobProfile, error) {
	p, _ := fakeMeasure(spec)
	p.Runtime = 15 * float64(4+len(spec.Bench.Name)%5+2*spec.Nodes)
	switch {
	case spec.CapW > 0 && spec.CapW < 180:
		p.Runtime += 30
	case spec.CapW > 0:
		p.Runtime += 15
	}
	return p, nil
}

// TestDroppedJobsRecorded pins the drop path: jobs whose configuration
// cannot be profiled are counted and named in the Result (not silently
// discarded), capacity is untouched, and the incremental loop drops
// exactly the jobs the oracle drops.
func TestDroppedJobsRecorded(t *testing.T) {
	failing := func(spec core.MeasureSpec) (core.JobProfile, error) {
		if spec.Bench.Name == "CuC_vdw" {
			return core.JobProfile{}, fmt.Errorf("no profile for %s", spec.Bench.Name)
		}
		return fakeMeasure(spec)
	}
	jobs := smallMix(32, 5)
	nVdw := 0
	for _, j := range jobs {
		if j.Bench.Name == "CuC_vdw" {
			nVdw++
		}
	}
	if nVdw == 0 {
		t.Fatal("mix has no CuC_vdw jobs; pick another seed")
	}
	catA, catB := NewCatalog(1), NewCatalog(1)
	catA.SetMeasure(failing)
	catB.SetMeasure(failing)
	got, err := Simulate(simCfg(DefaultProfileAware(), 8*1100, catA), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dropped != nVdw || len(got.DroppedIDs) != nVdw {
		t.Fatalf("dropped %d (%d IDs), want %d", got.Dropped, len(got.DroppedIDs), nVdw)
	}
	if got.Completed+got.Dropped != len(jobs) {
		t.Fatalf("completed %d + dropped %d != %d jobs", got.Completed, got.Dropped, len(jobs))
	}
	for _, id := range got.DroppedIDs {
		for _, o := range got.Outcomes {
			if o.ID == id {
				t.Fatalf("job %s both dropped and completed", id)
			}
		}
	}
	want, err := simulateOracle(simCfg(DefaultProfileAware(), 8*1100, catB), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drop handling diverged from oracle:\n got %+v\nwant %+v", got, want)
	}
}

// failOn returns a measurement function that fails for the named
// benchmark and counts those failing calls in *calls, and measures
// every other benchmark with fakeMeasure.
func failOn(name string, calls *int) func(core.MeasureSpec) (core.JobProfile, error) {
	return func(spec core.MeasureSpec) (core.JobProfile, error) {
		if spec.Bench.Name == name {
			*calls++
			return core.JobProfile{}, fmt.Errorf("no profile for %s", spec.Bench.Name)
		}
		return fakeMeasure(spec)
	}
}

// TestUnprofilableMeasuredOnce pins that a simulation asks for a
// configuration that cannot be profiled once, not once per job it
// drops: the mix's CuC_vdw jobs all share one (benchmark, nodes, cap).
func TestUnprofilableMeasuredOnce(t *testing.T) {
	for _, stream := range []bool{false, true} {
		calls := 0
		cat := NewCatalog(1)
		cat.SetMeasure(failOn("CuC_vdw", &calls))
		cfg := simCfg(DefaultProfileAware(), 8*1100, cat)
		var res Result
		var err error
		if stream {
			res, err = SimulateStream(cfg, SyntheticJobStream(64, 60, 5))
		} else {
			res, err = Simulate(cfg, smallMix(64, 5))
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Dropped < 2 {
			t.Fatalf("stream=%v: %d dropped; the case needs several drops", stream, res.Dropped)
		}
		if calls != 1 {
			t.Fatalf("stream=%v: %d measurements of the failing configuration for %d dropped jobs, want 1", stream, calls, res.Dropped)
		}
	}
}

// TestSimulateMatchesOracleTieOrder pins the tie order the in-place
// outcome ordering must keep: IDs longer than eight bytes that share
// one 8-byte prefix, IDs that differ only by trailing NUL bytes (equal
// zero-padded prefixes), and repeated IDs, with drops and jitter. It
// also pins that the returned outcomes end at their capacity, so an
// append by the caller cannot write over the dropped jobs' records
// behind them.
func TestSimulateMatchesOracleTieOrder(t *testing.T) {
	var ids []string
	for _, base := range []string{"facility-job-7", "facility-job-10", "facility", "job"} {
		for _, pad := range []string{"", "\x00", "\x00\x00"} {
			ids = append(ids, base+pad)
		}
	}
	mix := SyntheticJobMix(60, 30, 11)
	for i := range mix {
		mix[i].ID = ids[i%len(ids)]
	}
	for _, p := range []Policy{NoCap{NodeTDP: 2350}, UniformCap{Watts: 200, HostWatts: 350}, DefaultProfileAware()} {
		var callsA, callsB int
		catA, catB := NewCatalog(1), NewCatalog(1)
		catA.SetMeasure(failOn("CuC_vdw", &callsA))
		catB.SetMeasure(failOn("CuC_vdw", &callsB))
		cfgA := simCfg(p, 8*1100, catA)
		cfgB := simCfg(p, 8*1100, catB)
		cfgA.JitterSeed = 42
		cfgB.JitterSeed = 42
		got, err := Simulate(cfgA, mix)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		want, err := simulateOracle(cfgB, mix)
		if err != nil {
			t.Fatalf("%s: oracle: %v", p.Name(), err)
		}
		if got.Dropped == 0 || got.Completed <= 12 {
			t.Fatalf("%s: %d completed, %d dropped; the case needs drops and more than 12 outcomes", p.Name(), got.Completed, got.Dropped)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: incremental loop diverged from oracle:\n got %+v\nwant %+v", p.Name(), got, want)
		}
		if cap(got.Outcomes) != len(got.Outcomes) {
			t.Fatalf("%s: outcomes cap %d > len %d: an append would overwrite dropped records", p.Name(), cap(got.Outcomes), len(got.Outcomes))
		}
	}
}

// TestSimulateStreamMatchesSlice pins that the streaming entry point
// is the same simulation: SimulateStream over SyntheticJobStream
// equals Simulate over the materialized SyntheticJobMix, bit for bit.
func TestSimulateStreamMatchesSlice(t *testing.T) {
	const n, mean, seed = 40, 45, 17
	jobs := SyntheticJobMix(n, mean, seed)
	a, err := Simulate(simCfg(DefaultProfileAware(), 8*1100, fakeCatalog(1)), jobs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateStream(simCfg(DefaultProfileAware(), 8*1100, fakeCatalog(1)), SyntheticJobStream(n, mean, seed))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("stream result diverged from slice result:\n got %+v\nwant %+v", b, a)
	}
}

// TestRankedStreamMatchesSliceAtScale pins the ranked result path
// where the ID order is a real permutation: at 12,000 jobs (IDs past
// job9999 sort between earlier ones), SimulateStream over a mix, which
// writes each outcome at its rank, equals Simulate over the same jobs
// as a slice, which sorts, bit for bit — with no drops and with a
// benchmark whose jobs are all dropped — and the outcomes end at their
// capacity either way.
func TestRankedStreamMatchesSliceAtScale(t *testing.T) {
	const n, mean, seed = 12000, 0.4, 2024
	jobs := SyntheticJobMix(n, mean, seed)
	for _, drops := range []bool{false, true} {
		cfg := func() SimConfig {
			cat := fakeCatalog(1)
			if drops {
				var calls int
				cat.SetMeasure(failOn("CuC_vdw", &calls))
			}
			c := simCfg(DefaultProfileAware(), 0, cat)
			c.ClusterNodes, c.BudgetW, c.JitterSeed = 1800, 1800*1100, 42
			return c
		}
		want, err := Simulate(cfg(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SimulateStream(cfg(), SyntheticJobStream(n, mean, seed))
		if err != nil {
			t.Fatal(err)
		}
		if (got.Dropped > 0) != drops || got.Completed+got.Dropped != n {
			t.Fatalf("drops=%v: %d completed, %d dropped of %d", drops, got.Completed, got.Dropped, n)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("drops=%v: ranked stream result diverged from the sorted slice result", drops)
		}
		if cap(got.Outcomes) != len(got.Outcomes) {
			t.Fatalf("drops=%v: outcomes cap %d > len %d", drops, cap(got.Outcomes), len(got.Outcomes))
		}
	}
}

// TestMovedMixCursorSorts pins the fallback for a MixStream that has
// been read from: the mix's ranks number the whole mix, so the rest of
// it is simulated on the sorting path, exactly as the same jobs as a
// slice.
func TestMovedMixCursorSorts(t *testing.T) {
	const n, mean, seed = 10500, 0.4, 7
	src := SyntheticJobStream(n, mean, seed)
	for range 3 {
		src.Next()
	}
	cfg := simCfg(DefaultProfileAware(), 0, fakeCatalog(1))
	cfg.ClusterNodes = 1800
	got, err := SimulateStream(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Simulate(cfg, SyntheticJobMix(n, mean, seed)[3:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Completed != n-3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("moved cursor: %d completed, result equal to the slice's: %v", got.Completed, reflect.DeepEqual(got, want))
	}
}

// TestSyntheticStreamMatchesMix pins that the lazy generator and the
// materialized mix are one generator: draining the stream yields
// exactly the slice.
func TestSyntheticStreamMatchesMix(t *testing.T) {
	const n, mean, seed = 100, 30, 9
	want := SyntheticJobMix(n, mean, seed)
	src := SyntheticJobStream(n, mean, seed)
	if h := src.SizeHint(); h != n {
		t.Fatalf("fresh SizeHint %d, want %d", h, n)
	}
	var got []Job
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		got = append(got, j)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream yielded %d jobs != mix %d jobs (or contents differ)", len(got), len(want))
	}
	if h := src.SizeHint(); h != 0 {
		t.Fatalf("drained SizeHint %d, want 0", h)
	}
}

// TestFacilityScaleDeterministic runs the facility preset scale —
// 1,800 nodes, 10k jobs — twice and requires byte-identical Results.
func TestFacilityScaleDeterministic(t *testing.T) {
	const nodes, jobs = 1800, 10000
	run := func() Result {
		cfg := SimConfig{
			ClusterNodes: nodes,
			BudgetW:      nodes * 1100,
			IdleNodeW:    460,
			Policy:       DefaultProfileAware(),
			Catalog:      fakeCatalog(3),
			JitterSeed:   99,
		}
		res, err := SimulateStream(cfg, SyntheticJobStream(jobs, 5, 2024))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("facility-scale simulation not deterministic across runs")
	}
	if a.Completed+a.Dropped != jobs {
		t.Fatalf("completed %d + dropped %d != %d", a.Completed, a.Dropped, jobs)
	}
	if a.Dropped != 0 {
		t.Fatalf("unexpected drops: %d (%v...)", a.Dropped, a.DroppedIDs[:1])
	}
	if a.PeakPowerW > float64(nodes)*1100+1e-6 {
		t.Fatalf("budget violated at scale: peak %v", a.PeakPowerW)
	}
}

// TestBudgetEnvelope pins the time-varying facility envelope: under a
// budget too tight for any start, jobs queue until the phase that
// lifts it, and every start lands on a cycle boundary at or after the
// lift.
func TestBudgetEnvelope(t *testing.T) {
	jobs := smallMix(6, 13)
	for i := range jobs {
		jobs[i].Arrival = float64(i) * 10 // all well before the lift
	}
	idleFloor := 8 * 460.0
	cfg := simCfg(NoCap{NodeTDP: 2350}, idleFloor+100, fakeCatalog(1)) // headroom 100 W < any job's need
	cfg.BudgetSchedule = []BudgetPhase{{Start: 600, BudgetW: 0}}       // unconstrained from t=600
	res, err := Simulate(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(jobs) {
		t.Fatalf("completed %d of %d", res.Completed, len(jobs))
	}
	for _, o := range res.Outcomes {
		if o.Start < 600 {
			t.Fatalf("job %s started at %v under the pre-lift envelope", o.ID, o.Start)
		}
	}
	// A drop mid-schedule must not kill running jobs: rerun with a
	// late drop back to the tight budget and confirm everything that
	// started before the drop still completes.
	cfg.BudgetSchedule = []BudgetPhase{{Start: 600, BudgetW: 0}, {Start: 660, BudgetW: idleFloor + 100}}
	res2, err := Simulate(cfg, jobs)
	if err == nil {
		for _, o := range res2.Outcomes {
			if o.Start >= 600 && o.Start < 660 && o.End <= o.Start {
				t.Fatalf("job %s truncated by budget drop: %+v", o.ID, o)
			}
		}
	} else if !strings.Contains(err.Error(), "never started") {
		t.Fatalf("unexpected error under drop schedule: %v", err)
	}
}

// TestStartQuantization pins the paper's 30-second scheduling cycle:
// event-driven passes must still only start jobs at multiples of
// CycleSeconds, exactly as the ticker did.
func TestStartQuantization(t *testing.T) {
	res, err := SimulateStream(
		simCfg(DefaultProfileAware(), 8*1100, fakeCatalog(1)),
		SyntheticJobStream(50, 45, 23))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		if math.Mod(o.Start, CycleSeconds) != 0 {
			t.Fatalf("job %s started off-cycle at %v", o.ID, o.Start)
		}
	}
}

// TestDeadlockDetected pins the improvement over the ticker loop: a
// mix that can never start returns an error instead of ticking
// forever.
func TestDeadlockDetected(t *testing.T) {
	jobs := smallMix(4, 3)
	cfg := simCfg(NoCap{NodeTDP: 2350}, 8*460+100, fakeCatalog(1)) // headroom forever too small
	_, err := Simulate(cfg, jobs)
	if err == nil || !strings.Contains(err.Error(), "never started") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

// TestStreamValidation pins the lazy validation path and the budget
// schedule validation.
func TestStreamValidation(t *testing.T) {
	cfg := simCfg(NoCap{NodeTDP: 2350}, 0, fakeCatalog(1))
	if _, err := SimulateStream(cfg, nil); err == nil {
		t.Fatal("nil stream accepted")
	}
	jobs := smallMix(2, 1)
	disordered := []Job{jobs[1], jobs[0]}
	if disordered[0].Arrival <= disordered[1].Arrival {
		t.Fatal("test setup: jobs not out of order")
	}
	if _, err := SimulateStream(cfg, &sliceStream{jobs: disordered}); err == nil ||
		!strings.Contains(err.Error(), "sorted by arrival") {
		t.Fatalf("out-of-order stream: got %v", err)
	}
	big := append([]Job(nil), jobs...)
	big[0].Nodes = 99
	if _, err := SimulateStream(cfg, &sliceStream{jobs: big}); err == nil ||
		!strings.Contains(err.Error(), "needs 99 nodes") {
		t.Fatalf("oversized job in stream: got %v", err)
	}

	// An invalid benchmark first seen mid-stream fails at that job —
	// the stream is not drawn past it — with Job.Validate's error, which
	// precedes the cluster-size check for a job that fails both. A
	// benchmark sharing a valid one's Name but not its fields is
	// interned, and so validated, on its own.
	mid := smallMix(8, 1)
	for _, tc := range []struct {
		name string
		edit func(j *Job)
	}{
		{"invalid", func(j *Job) { j.Bench.NELM = 0 }},
		{"invalid and wide", func(j *Job) { j.Bench.NELM = 0; j.Nodes = 99 }},
		{"same name as earlier", func(j *Job) { j.Bench = mid[0].Bench; j.Bench.OptimalNodes = 0 }},
		{"empty ID before bench", func(j *Job) { j.ID = ""; j.Bench.NELM = 0 }},
	} {
		jobs := append([]Job(nil), mid...)
		tc.edit(&jobs[5])
		want := jobs[5].Validate()
		if want == nil {
			t.Fatalf("%s: test setup: job 5 is valid", tc.name)
		}
		src := &countingStream{JobStream: &sliceStream{jobs: jobs}}
		_, err := SimulateStream(cfg, src)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("%s: got %v, want %v", tc.name, err, want)
		}
		if src.drawn != 6 {
			t.Fatalf("%s: failed after drawing %d jobs, want 6 (at job 5)", tc.name, src.drawn)
		}
	}

	bad := cfg
	bad.BudgetSchedule = []BudgetPhase{{Start: 100, BudgetW: 1000}, {Start: 50, BudgetW: 2000}}
	if _, err := Simulate(bad, jobs); err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Fatalf("unsorted schedule: got %v", err)
	}
	bad.BudgetSchedule = []BudgetPhase{{Start: -1, BudgetW: 1000}}
	if _, err := Simulate(bad, jobs); err == nil {
		t.Fatal("negative phase start accepted")
	}
	bad.BudgetSchedule = []BudgetPhase{{Start: 0, BudgetW: math.NaN()}}
	if _, err := Simulate(bad, jobs); err == nil {
		t.Fatal("NaN phase budget accepted")
	}
}

// countingStream counts the jobs drawn from the stream it wraps.
type countingStream struct {
	JobStream
	drawn int
}

func (c *countingStream) Next() (Job, bool) {
	j, ok := c.JobStream.Next()
	if ok {
		c.drawn++
	}
	return j, ok
}

// TestSameNameBenchmarksInternedApart pins that the benchmark intern
// table matches whole values, not names: jobs whose benchmark keeps a
// Table I name but switches its method to HSE are hybrid-class jobs,
// with their own cap and reservation, exactly as the oracle treats
// them.
func TestSameNameBenchmarksInternedApart(t *testing.T) {
	jobs := smallMix(30, 7)
	SortJobs(jobs)
	changed := 0
	for i := range jobs {
		if i%3 == 0 && Classify(jobs[i].Bench.Method) == ClassDFT {
			jobs[i].Bench.Method = method.HSE
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("test setup: no DFT-class job to change")
	}
	for _, p := range []Policy{UniformCap{Watts: 200, HostWatts: 350}, DefaultProfileAware()} {
		got, err := SimulateStream(simCfg(p, 8*1100, fakeCatalog(1)), &sliceStream{jobs: jobs})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		want, err := simulateOracle(simCfg(p, 8*1100, fakeCatalog(1)), jobs)
		if err != nil {
			t.Fatalf("%s: oracle: %v", p.Name(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: diverged from oracle:\n got %+v\nwant %+v", p.Name(), got, want)
		}
	}
}

// TestSchedMetrics pins the obs wiring: a simulation under installed
// metrics accounts for every job as started, dropped, or completed,
// counts its packing passes, and records head-of-line stalls and the
// peak reservation.
func TestSchedMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	SetMetrics(m)
	defer SetMetrics(nil)

	failing := func(spec core.MeasureSpec) (core.JobProfile, error) {
		if spec.Bench.Name == "CuC_vdw" {
			return core.JobProfile{}, fmt.Errorf("no profile")
		}
		return fakeMeasure(spec)
	}
	cat := NewCatalog(1)
	cat.SetMeasure(failing)
	jobs := smallMix(32, 5)
	cfg := simCfg(DefaultProfileAware(), 8*1100, cat)
	cfg.ClusterNodes = 2 // force queueing → head-of-line stalls
	res, err := Simulate(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.JobsStarted.Value(); got != int64(res.Completed) {
		t.Fatalf("jobs_started %d, want %d", got, res.Completed)
	}
	if got := m.JobsDropped.Value(); got != int64(res.Dropped) {
		t.Fatalf("jobs_dropped %d, want %d", got, res.Dropped)
	}
	if got := m.JobsCompleted.Value(); got != int64(res.Completed) {
		t.Fatalf("jobs_completed %d, want %d", got, res.Completed)
	}
	if m.PackingPasses.Value() <= 0 {
		t.Fatal("no packing passes counted")
	}
	if m.HOLStalls.Value() <= 0 {
		t.Fatal("no head-of-line stalls counted on a 2-node cluster")
	}
	if got := m.PeakReservedW.Value(); got != int64(res.PeakPowerW) {
		t.Fatalf("peak_reserved_w %d, want %d", got, int64(res.PeakPowerW))
	}
}
