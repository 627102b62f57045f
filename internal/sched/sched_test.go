package sched

import (
	"fmt"
	"math"
	"testing"

	"vasppower/internal/dft/method"
	"vasppower/internal/workloads"
)

func TestClassify(t *testing.T) {
	cases := map[method.Kind]Class{
		method.DFTRMM:   ClassDFT,
		method.DFTBD:    ClassDFT,
		method.DFTBDRMM: ClassDFT,
		method.DFTCG:    ClassDFT,
		method.VDW:      ClassDFT,
		method.HSE:      ClassHybrid,
		method.ACFDTR:   ClassRPA,
	}
	for k, want := range cases {
		if got := Classify(k); got != want {
			t.Fatalf("Classify(%v) = %v, want %v", k, got, want)
		}
	}
}

func TestClassString(t *testing.T) {
	if ClassDFT.String() != "dft" || ClassHybrid.String() != "hybrid" || ClassRPA.String() != "rpa" {
		t.Fatal("class strings wrong")
	}
	if Class(9).String() == "" {
		t.Fatal("unknown class should render")
	}
}

func TestPolicies(t *testing.T) {
	nc := NoCap{NodeTDP: 2350}
	if nc.Cap(ClassHybrid) != 0 || nc.BudgetPowerPerNode(ClassDFT) != 2350 {
		t.Fatal("NoCap wrong")
	}
	uc := UniformCap{Watts: 200, HostWatts: 350}
	if uc.Cap(ClassDFT) != 200 || uc.BudgetPowerPerNode(ClassRPA) != 1150 {
		t.Fatal("UniformCap wrong")
	}
	pa := DefaultProfileAware()
	if pa.Cap(ClassDFT) >= pa.Cap(ClassHybrid) {
		t.Fatal("profile-aware should cap DFT harder than hybrid")
	}
	if pa.BudgetPowerPerNode(ClassDFT) >= (NoCap{NodeTDP: 2350}).BudgetPowerPerNode(ClassDFT) {
		t.Fatal("profile-aware reservation should undercut TDP")
	}
}

func TestJobValidate(t *testing.T) {
	b, _ := workloads.ByName("PdO2")
	good := Job{ID: "j1", Bench: b, Nodes: 1, Arrival: 0}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Job{
		{ID: "", Bench: b, Nodes: 1},
		{ID: "j", Bench: b, Nodes: 0},
		{ID: "j", Bench: b, Nodes: 1, Arrival: -1},
		{ID: "j", Bench: b, Nodes: 1, Arrival: math.NaN()},
		{ID: "j", Bench: b, Nodes: 1, Arrival: math.Inf(1)},
		{ID: "j", Bench: b, Nodes: 1, Arrival: math.Inf(-1)},
	}
	for i, j := range bad {
		if err := j.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestSortJobs(t *testing.T) {
	b, _ := workloads.ByName("PdO2")
	jobs := []Job{
		{ID: "b", Bench: b, Nodes: 1, Arrival: 5},
		{ID: "a", Bench: b, Nodes: 1, Arrival: 5},
		{ID: "c", Bench: b, Nodes: 1, Arrival: 1},
	}
	SortJobs(jobs)
	if jobs[0].ID != "c" || jobs[1].ID != "a" || jobs[2].ID != "b" {
		t.Fatalf("sort wrong: %v %v %v", jobs[0].ID, jobs[1].ID, jobs[2].ID)
	}
}

func TestCatalogCachesAndMeasures(t *testing.T) {
	cat := NewCatalog(1)
	b, _ := workloads.ByName("GaAsBi-64")
	p1, err := cat.get(&b, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Runtime <= 0 || p1.MeanNodeW <= 0 || p1.ModeNodeW <= 0 {
		t.Fatalf("profile empty: %+v", p1)
	}
	n := cat.Size()
	p2, err := cat.get(&b, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Size() != n {
		t.Fatal("second Get re-measured")
	}
	if p1 != p2 {
		t.Fatal("cache returned different profile")
	}
	// Capped profile records loss vs baseline.
	pc, err := cat.get(&b, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if pc.BaselineRT != p1.Runtime {
		t.Fatalf("baseline not propagated: %v vs %v", pc.BaselineRT, p1.Runtime)
	}
	if pc.PerfLoss() < 0 || pc.PerfLoss() > 0.2 {
		t.Fatalf("GaAsBi at 100 W should lose <20%%: %v", pc.PerfLoss())
	}
}

func TestSyntheticJobMix(t *testing.T) {
	jobs := SyntheticJobMix(50, 120, 7)
	if len(jobs) != 50 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	prev := -1.0
	classes := map[Class]int{}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
		if j.Arrival < prev {
			t.Fatal("arrivals not monotone")
		}
		prev = j.Arrival
		classes[Classify(j.Bench.Method)]++
	}
	if classes[ClassDFT] == 0 || classes[ClassHybrid]+classes[ClassRPA] == 0 {
		t.Fatalf("mix lacks diversity: %v", classes)
	}
	// Deterministic.
	again := SyntheticJobMix(50, 120, 7)
	for i := range jobs {
		if jobs[i] != again[i] {
			t.Fatal("mix not reproducible")
		}
	}
}

// jobID formats i as fmt's "job%04d" does for i ≥ 0.
func jobID(i int) string {
	var buf [24]byte
	return string(appendJobID(buf[:0], i))
}

// TestJobIDMatchesFmt pins the mix's hand-rolled ID formatting to
// the fmt verb it replaces, across the padding boundaries.
func TestJobIDMatchesFmt(t *testing.T) {
	for _, i := range []int{0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 100000, 1234567} {
		if got, want := jobID(i), fmt.Sprintf("job%04d", i); got != want {
			t.Fatalf("jobID(%d) = %q, want %q", i, got, want)
		}
	}
}
