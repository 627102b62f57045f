package omni

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"vasppower/internal/timeseries"
)

func mkSeries(t0, dt float64, vals ...float64) timeseries.Series {
	s := timeseries.Series{}
	for i, v := range vals {
		s.Times = append(s.Times, t0+float64(i)*dt)
		s.Values = append(s.Values, v)
	}
	return s
}

func TestInsertAndQuery(t *testing.T) {
	st := NewStore(nil)
	if err := st.Insert("nid1", "node", mkSeries(0, 2, 500, 600, 700)); err != nil {
		t.Fatal(err)
	}
	got, err := st.Query("nid1", "node", 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Values[0] != 600 {
		t.Fatalf("query wrong: %+v", got)
	}
}

func TestInsertAppends(t *testing.T) {
	st := NewStore(nil)
	_ = st.Insert("nid1", "node", mkSeries(0, 1, 1, 2))
	if err := st.Insert("nid1", "node", mkSeries(2, 1, 3, 4)); err != nil {
		t.Fatal(err)
	}
	got, _ := st.Query("nid1", "node", 0, 10)
	if got.Len() != 4 {
		t.Fatalf("appended length = %d", got.Len())
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertRejectsOutOfOrder(t *testing.T) {
	st := NewStore(nil)
	_ = st.Insert("nid1", "node", mkSeries(10, 1, 1, 2))
	if err := st.Insert("nid1", "node", mkSeries(5, 1, 3)); err == nil {
		t.Fatal("out-of-order insert accepted")
	}
}

func TestInsertValidation(t *testing.T) {
	st := NewStore(nil)
	if err := st.Insert("", "node", mkSeries(0, 1, 1)); err == nil {
		t.Fatal("empty host accepted")
	}
	if err := st.Insert("nid1", "", mkSeries(0, 1, 1)); err == nil {
		t.Fatal("empty metric accepted")
	}
	bad := timeseries.Series{Times: []float64{1, 1}, Values: []float64{1, 2}}
	if err := st.Insert("nid1", "node", bad); err == nil {
		t.Fatal("invalid series accepted")
	}
	// Empty insert is a no-op.
	if err := st.Insert("nid1", "node", timeseries.Series{}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryErrors(t *testing.T) {
	st := NewStore(nil)
	_ = st.Insert("nid1", "node", mkSeries(0, 1, 1))
	if _, err := st.Query("nope", "node", 0, 1); err == nil {
		t.Fatal("unknown host accepted")
	}
	if _, err := st.Query("nid1", "nope", 0, 1); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

func TestHostsAndMetrics(t *testing.T) {
	st := NewStore(nil)
	_ = st.Insert("b", "node", mkSeries(0, 1, 1))
	_ = st.Insert("a", "cpu", mkSeries(0, 1, 1))
	_ = st.Insert("a", "node", mkSeries(0, 1, 1))
	hosts := st.Hosts()
	if len(hosts) != 2 || hosts[0] != "a" || hosts[1] != "b" {
		t.Fatalf("hosts = %v", hosts)
	}
	ms := st.MetricsOf("a")
	if len(ms) != 2 || ms[0] != "cpu" {
		t.Fatalf("metrics = %v", ms)
	}
}

func TestJobRegistryAndJobPower(t *testing.T) {
	st := NewStore(nil)
	for _, h := range []string{"nid1", "nid2"} {
		_ = st.Insert(h, "node", mkSeries(0, 2, 500, 600, 700, 800, 900))
	}
	job := JobRecord{ID: "123", User: "alice", App: "vasp", Nodes: []string{"nid1", "nid2"}, Start: 2, End: 7}
	if err := st.RegisterJob(job); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterJob(job); err == nil {
		t.Fatal("duplicate job accepted")
	}
	got, err := st.JobPower("123", "node")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("JobPower nodes = %d", len(got))
	}
	// Samples at t=2,4,6 fall inside [2,7].
	if got["nid1"].Len() != 3 {
		t.Fatalf("window filter wrong: %d samples", got["nid1"].Len())
	}
	ids := st.Jobs()
	if len(ids) != 1 || ids[0] != "123" {
		t.Fatalf("Jobs = %v", ids)
	}
}

func TestJobValidation(t *testing.T) {
	bad := []JobRecord{
		{ID: "", Nodes: []string{"a"}, Start: 0, End: 1},
		{ID: "x", Nodes: nil, Start: 0, End: 1},
		{ID: "x", Nodes: []string{"a"}, Start: 1, End: 1},
	}
	for i, j := range bad {
		if err := j.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	st := NewStore(nil)
	if err := st.RegisterJob(bad[0]); err == nil {
		t.Fatal("invalid job registered")
	}
	if _, err := st.Job("missing"); err == nil {
		t.Fatal("unknown job returned")
	}
	if _, err := st.JobPower("missing", "node"); err == nil {
		t.Fatal("unknown job power returned")
	}
}

func TestJobEnergy(t *testing.T) {
	st := NewStore(nil)
	// Constant 1000 W for 10 s on one node.
	s := timeseries.Series{}
	for i := 0; i <= 10; i++ {
		s.Times = append(s.Times, float64(i))
		s.Values = append(s.Values, 1000)
	}
	_ = st.Insert("nid1", "node", s)
	_ = st.RegisterJob(JobRecord{ID: "j", Nodes: []string{"nid1"}, Start: 0, End: 10})
	e, err := st.JobEnergy("j")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-10000) > 1e-6 {
		t.Fatalf("energy = %v, want 10000", e)
	}
}

func TestConcurrentAccess(t *testing.T) {
	st := NewStore(nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			host := fmt.Sprintf("nid%d", w)
			for i := 0; i < 100; i++ {
				_ = st.Insert(host, "node", mkSeries(float64(i), 0.5, float64(i)))
				_, _ = st.Query(host, "node", 0, 1000)
				st.Hosts()
			}
		}(w)
	}
	wg.Wait()
	if len(st.Hosts()) != 8 {
		t.Fatalf("hosts = %v", st.Hosts())
	}
}
