package sched

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strconv"
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
				if !reflect.DeepEqual(view(got), want) {
					t.Fatalf("%s: incremental loop diverged from oracle:\n got %+v\nwant %+v", name, view(got), want)
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
		if !reflect.DeepEqual(view(got), want) {
			t.Fatalf("%s/dups: incremental loop diverged from oracle:\n got %+v\nwant %+v", p.Name(), view(got), want)
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
		if !reflect.DeepEqual(view(got), want) {
			t.Fatalf("%s/exact: incremental loop diverged from oracle:\n got %+v\nwant %+v", p.Name(), view(got), want)
		}
		arrivals := map[float64]bool{}
		for _, j := range exact {
			arrivals[j.Arrival] = true
		}
		var onArrival, onCycle, waited int
		for _, o := range got.Outcomes() {
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
		for _, o := range got.Outcomes() {
			if o.ID == id {
				t.Fatalf("job %s both dropped and completed", id)
			}
		}
	}
	want, err := simulateOracle(simCfg(DefaultProfileAware(), 8*1100, catB), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(view(got), want) {
		t.Fatalf("drop handling diverged from oracle:\n got %+v\nwant %+v", view(got), want)
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
	for _, table := range []bool{false, true} {
		calls := 0
		cat := NewCatalog(1)
		cat.SetMeasure(failOn("CuC_vdw", &calls))
		cfg := simCfg(DefaultProfileAware(), 8*1100, cat)
		var res Result
		var err error
		if table {
			res, err = SimulateMix(cfg, NewSyntheticMix(64, 60, 5))
		} else {
			res, err = Simulate(cfg, smallMix(64, 5))
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Dropped < 2 {
			t.Fatalf("table=%v: %d dropped; the case needs several drops", table, res.Dropped)
		}
		if calls != 1 {
			t.Fatalf("table=%v: %d measurements of the failing configuration for %d dropped jobs, want 1", table, calls, res.Dropped)
		}
	}
}

// TestSimulateMatchesOracleTieOrder pins the tie order the in-place
// outcome ordering must keep: IDs longer than eight bytes that share
// one 8-byte prefix, IDs that differ only by trailing NUL bytes (equal
// zero-padded prefixes), and repeated IDs, with drops and jitter. It
// also pins that a caller writing into the outcomes cannot change the
// rows of a later call.
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
		if !reflect.DeepEqual(view(got), want) {
			t.Fatalf("%s: incremental loop diverged from oracle:\n got %+v\nwant %+v", p.Name(), view(got), want)
		}
		requireFreshOutcomes(t, p.Name(), got)
	}
}

// requireFreshOutcomes checks that Outcomes builds a fresh slice on
// each call: writing into one call's rows, and appending to them,
// leaves the next call's rows unchanged.
func requireFreshOutcomes(t *testing.T, name string, r Result) {
	t.Helper()
	first := r.Outcomes()
	want := slices.Clone(first)
	for i := range first {
		first[i] = JobOutcome{ID: "overwritten", End: -1}
	}
	_ = append(first, JobOutcome{ID: "appended"})
	if got := r.Outcomes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: a write into one Outcomes result reached the next call's rows", name)
	}
}

// TestOutcomesWithoutCompletions pins the rows of a Result with no
// completed job: a simulation that drops every job (as the oracle
// does) and a Result no simulation built both return no outcomes, and
// their timelines are empty.
func TestOutcomesWithoutCompletions(t *testing.T) {
	never := func(spec core.MeasureSpec) (core.JobProfile, error) {
		return core.JobProfile{}, fmt.Errorf("no profile for %s", spec.Bench.Name)
	}
	jobs := smallMix(20, 5)
	catA, catB := NewCatalog(1), NewCatalog(1)
	catA.SetMeasure(never)
	catB.SetMeasure(never)
	got, err := Simulate(simCfg(DefaultProfileAware(), 8*1100, catA), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Completed != 0 || got.Dropped != len(jobs) {
		t.Fatalf("%d completed, %d dropped of %d; every job should drop", got.Completed, got.Dropped, len(jobs))
	}
	want, err := simulateOracle(simCfg(DefaultProfileAware(), 8*1100, catB), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(view(got), want) {
		t.Fatalf("all-dropped run diverged from oracle:\n got %+v\nwant %+v", view(got), want)
	}
	for _, r := range []Result{got, {Policy: "nocap"}} {
		if o := r.Outcomes(); len(o) != 0 {
			t.Fatalf("%s: %d outcomes without a completed job", r.Policy, len(o))
		}
		if reserved, actual := r.Timelines(460); reserved.Duration() != 0 || actual.Duration() != 0 {
			t.Fatalf("%s: timelines span %v and %v s without a completed job", r.Policy, reserved.Duration(), actual.Duration())
		}
	}
}

// TestJobTableMatchesOracle pins the table Simulate builds from its
// jobs against the oracle, which sorts its outcomes: IDs that are not
// "job%04d" and differ in width (so ID order is a real permutation of
// arrival order), IDs repeated across jobs, and benchmarks that share
// a name but not every field, each with jitter and with drops.
func TestJobTableMatchesOracle(t *testing.T) {
	base := SyntheticJobMix(80, 30, 13)
	for _, tc := range []struct {
		name    string
		edit    func(i int, j *Job)
		entries int // the table's distinct benchmarks
	}{
		{"mixed widths", func(i int, j *Job) {
			j.ID = strconv.FormatInt(int64(i*7919%100003), 36)
		}, len(mixSuite)},
		{"duplicates", func(i int, j *Job) {
			j.ID = []string{"b", "a10", "a9", "c"}[i%4]
		}, len(mixSuite)},
		{"same name, other fields", func(i int, j *Job) {
			if i%3 == 0 {
				j.Bench.NELM += 5
			}
		}, 2 * len(mixSuite)},
	} {
		jobs := append([]Job(nil), base...)
		for i := range jobs {
			tc.edit(i, &jobs[i])
		}
		queue := append([]Job(nil), jobs...)
		SortJobs(queue)
		m, err := jobTable(queue)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(m.benches) != tc.entries {
			t.Fatalf("%s: %d table entries, want %d", tc.name, len(m.benches), tc.entries)
		}
		for _, p := range []Policy{NoCap{NodeTDP: 2350}, DefaultProfileAware()} {
			var callsA, callsB int
			catA, catB := NewCatalog(1), NewCatalog(1)
			catA.SetMeasure(failOn("CuC_vdw", &callsA))
			catB.SetMeasure(failOn("CuC_vdw", &callsB))
			cfgA, cfgB := simCfg(p, 8*1100, catA), simCfg(p, 8*1100, catB)
			cfgA.JitterSeed, cfgB.JitterSeed = 42, 42
			got, err := Simulate(cfgA, jobs)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, p.Name(), err)
			}
			want, err := simulateOracle(cfgB, jobs)
			if err != nil {
				t.Fatalf("%s/%s: oracle: %v", tc.name, p.Name(), err)
			}
			if got.Dropped == 0 || got.Completed <= 12 {
				t.Fatalf("%s/%s: %d completed, %d dropped; the case needs drops and more than 12 outcomes",
					tc.name, p.Name(), got.Completed, got.Dropped)
			}
			if !reflect.DeepEqual(view(got), want) {
				t.Fatalf("%s/%s: diverged from oracle:\n got %+v\nwant %+v", tc.name, p.Name(), view(got), want)
			}
		}
	}
}

// TestJobTableRejectsWideJobs pins the table's node bound: a job
// record holds up to 65,535 nodes, so a job needing more is an error
// naming it, on a cluster large enough to hold it, rather than a
// wrapped node count.
func TestJobTableRejectsWideJobs(t *testing.T) {
	cfg := simCfg(NoCap{NodeTDP: 2350}, 0, fakeCatalog(1))
	cfg.ClusterNodes = 70000
	jobs := smallMix(3, 1)
	jobs[1].Nodes = math.MaxUint16
	res, err := Simulate(cfg, jobs)
	if err != nil || res.Completed != len(jobs) {
		t.Fatalf("job of %d nodes: %d completed, %v", jobs[1].Nodes, res.Completed, err)
	}
	jobs[1].Nodes = math.MaxUint16 + 1
	const frag = "needs 65536 nodes, more than a job table holds (65535)"
	if _, err := Simulate(cfg, jobs); err == nil || !strings.Contains(err.Error(), frag) {
		t.Fatalf("job of %d nodes: got %v, want an error with %q", jobs[1].Nodes, err, frag)
	}
}

// TestSimulateStreamMatchesSlice pins that the two entry points are
// the same simulation: SimulateMix over a drawn table equals Simulate
// over its jobs as a SyntheticJobMix slice, bit for bit.
func TestSimulateStreamMatchesSlice(t *testing.T) {
	const n, mean, seed = 40, 45, 17
	jobs := SyntheticJobMix(n, mean, seed)
	a, err := Simulate(simCfg(DefaultProfileAware(), 8*1100, fakeCatalog(1)), jobs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateMix(simCfg(DefaultProfileAware(), 8*1100, fakeCatalog(1)), NewSyntheticMix(n, mean, seed))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(view(a), view(b)) {
		t.Fatalf("table result diverged from slice result:\n got %+v\nwant %+v", view(b), view(a))
	}
}

// TestRankedStreamMatchesSliceAtScale pins the ID-ordered result path
// where the ID order is a real permutation: at 12,000 jobs (IDs past
// job9999 sort between earlier ones), SimulateMix over a drawn table,
// ordered by merging its ID widths, equals Simulate over the same jobs
// as a slice, whose table is ordered by a sort, bit for bit — with no
// drops and with a benchmark whose jobs are all dropped — and each
// Outcomes call builds fresh rows either way.
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
		got, err := SimulateMix(cfg(), NewSyntheticMix(n, mean, seed))
		if err != nil {
			t.Fatal(err)
		}
		if (got.Dropped > 0) != drops || got.Completed+got.Dropped != n {
			t.Fatalf("drops=%v: %d completed, %d dropped of %d", drops, got.Completed, got.Dropped, n)
		}
		if !reflect.DeepEqual(view(got), view(want)) {
			t.Fatalf("drops=%v: drawn table's result diverged from the slice's", drops)
		}
		requireFreshOutcomes(t, fmt.Sprintf("drops=%v", drops), got)
	}
}

// TestSyntheticStreamMatchesMix pins that a table built from jobs is
// the table they were drawn as: SyntheticJobMix is the pre-table draw
// loop's output, and the table of those jobs yields them back in the
// drawn table's ID order, here at 12,000 jobs, where ID order is a
// real permutation of arrival order.
func TestSyntheticStreamMatchesMix(t *testing.T) {
	const n, mean, seed = 12000, 0.4, 9
	jobs := SyntheticJobMix(n, mean, seed)
	if want := drawLoopOracle(mixSuite, n, mean, seed); !reflect.DeepEqual(jobs, want) {
		t.Fatalf("SyntheticJobMix yields %d jobs, the draw loop %d (or contents differ)", len(jobs), len(want))
	}
	m, err := jobTable(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := jobsOf(m); !reflect.DeepEqual(got, jobs) {
		t.Fatal("the table of the jobs does not yield them back")
	}
	if want := NewSyntheticMix(n, mean, seed).order; !slices.Equal(m.order, want) {
		t.Fatal("the table of the jobs orders them unlike the drawn table")
	}
	if len(m.benches) != len(mixSuite) {
		t.Fatalf("%d entries for the %d benchmarks drawn", len(m.benches), len(mixSuite))
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
		res, err := SimulateMix(cfg, NewSyntheticMix(jobs, 5, 2024))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(view(a), view(b)) {
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

// TestSimulateMixBytesPerJob guards the simulation's per-job
// footprint: one SimulateMix over a 100,000-job table, after a warm-up
// run that fills the catalog, allocates at most 32 bytes per job
// (runtime.MemStats.TotalAlloc, which counts every allocation,
// however short-lived). The 24-byte record per job is most of it; a
// stored outcome row per job would be over 100.
func TestSimulateMixBytesPerJob(t *testing.T) {
	const jobs, budget = 100000, 32.0
	cfg, mean := benchConfig(1800)
	mix := NewSyntheticMix(jobs, mean, 2024)
	if _, err := SimulateMix(cfg, mix); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := SimulateMix(cfg, mix)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != jobs {
		t.Fatalf("completed %d of %d", res.Completed, jobs)
	}
	got := float64(after.TotalAlloc-before.TotalAlloc) / jobs
	t.Logf("SimulateMix allocated %.1f B per job", got)
	if got > budget {
		t.Fatalf("SimulateMix allocated %.1f B per job, want at most %.0f", got, budget)
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
	for _, o := range res.Outcomes() {
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
		for _, o := range res2.Outcomes() {
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
	res, err := SimulateMix(
		simCfg(DefaultProfileAware(), 8*1100, fakeCatalog(1)),
		NewSyntheticMix(50, 45, 23))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes() {
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

// TestStreamValidation pins the checks the loop runs on each job it
// draws from a table, the checks Simulate runs up front, and the
// budget schedule validation.
func TestStreamValidation(t *testing.T) {
	cfg := simCfg(NoCap{NodeTDP: 2350}, 0, fakeCatalog(1))
	if _, err := SimulateMix(cfg, nil); err == nil {
		t.Fatal("nil table accepted")
	}
	// A table of jobs that Simulate has neither checked nor sorted:
	// the loop stops at the first job that fails its checks.
	tableOf := func(jobs []Job) *SyntheticMix {
		m, err := jobTable(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	jobs := smallMix(2, 1)
	disordered := []Job{jobs[1], jobs[0]}
	if disordered[0].Arrival <= disordered[1].Arrival {
		t.Fatal("test setup: jobs not out of order")
	}
	if _, err := SimulateMix(cfg, tableOf(disordered)); err == nil ||
		!strings.Contains(err.Error(), "sorted by arrival") {
		t.Fatalf("out-of-order table: got %v", err)
	}
	big := append([]Job(nil), jobs...)
	big[0].Nodes = 99
	if _, err := SimulateMix(cfg, tableOf(big)); err == nil ||
		!strings.Contains(err.Error(), "needs 99 nodes") {
		t.Fatalf("oversized job in table: got %v", err)
	}
	mid := smallMix(8, 1)
	unnamed := append([]Job(nil), mid...)
	unnamed[5].ID = ""
	if _, err := SimulateMix(cfg, tableOf(unnamed)); err == nil || err.Error() != unnamed[5].Validate().Error() {
		t.Fatalf("job with empty ID in table: got %v", err)
	}

	// An invalid benchmark fails Simulate with Job.Validate's error,
	// which precedes the cluster-size check for a job that fails both.
	// A benchmark sharing a valid one's Name but not its fields is
	// checked on its own.
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
		if _, err := Simulate(cfg, jobs); err == nil || err.Error() != want.Error() {
			t.Fatalf("%s: got %v, want %v", tc.name, err, want)
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

// TestSameNameBenchmarksInternedApart pins that a job table's entries
// match whole values, not names: jobs whose benchmark keeps a
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
		got, err := Simulate(simCfg(p, 8*1100, fakeCatalog(1)), jobs)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		want, err := simulateOracle(simCfg(p, 8*1100, fakeCatalog(1)), jobs)
		if err != nil {
			t.Fatalf("%s: oracle: %v", p.Name(), err)
		}
		if !reflect.DeepEqual(view(got), want) {
			t.Fatalf("%s: diverged from oracle:\n got %+v\nwant %+v", p.Name(), view(got), want)
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
