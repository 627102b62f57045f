package omni

import (
	"fmt"
	"sync"
	"testing"

	"vasppower/internal/obs"
	"vasppower/internal/timeseries"
)

// chunk builds a small in-order series covering [start, start+4].
func chunk(start float64) timeseries.Series {
	var s timeseries.Series
	for i := 0; i < 5; i++ {
		s.Times = append(s.Times, start+float64(i))
		s.Values = append(s.Values, 100+float64(i))
	}
	return s
}

// TestConcurrentInsertWhileQuery exercises the package's documented
// guarantee — "in production many LDMS forwarders insert while
// analysis queries run" — under the race detector: per-host writers
// stream in-order chunks while readers hammer Query, JobPower,
// JobEnergy, Hosts, and MetricsOf the whole time.
func TestConcurrentInsertWhileQuery(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	s := NewStore(m)

	const hosts, chunks = 4, 50
	hostName := func(h int) string { return fmt.Sprintf("nid%03d", h) }

	// Pre-register a job over the window the writers will fill, and
	// seed each host with one chunk so early queries can hit data.
	var nodes []string
	for h := 0; h < hosts; h++ {
		nodes = append(nodes, hostName(h))
		if err := s.Insert(hostName(h), "node", chunk(0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RegisterJob(JobRecord{
		ID: "job1", User: "u", App: "vasp", Nodes: nodes, Start: 0, End: chunks * 5,
	}); err != nil {
		t.Fatal(err)
	}

	// Writers: one per host, each streaming strictly-later chunks.
	var writers sync.WaitGroup
	for h := 0; h < hosts; h++ {
		writers.Add(1)
		go func(h int) {
			defer writers.Done()
			for c := 1; c < chunks; c++ {
				if err := s.Insert(hostName(h), "node", chunk(float64(c)*5)); err != nil {
					t.Errorf("insert %s chunk %d: %v", hostName(h), c, err)
					return
				}
			}
		}(h)
	}

	// Readers: query until the writers are done.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				host := hostName(r % hosts)
				if _, err := s.Query(host, "node", 0, chunks*5); err != nil {
					t.Errorf("query %s: %v", host, err)
					return
				}
				if _, err := s.JobPower("job1", "node"); err != nil {
					t.Errorf("job power: %v", err)
					return
				}
				if _, err := s.JobEnergy("job1"); err != nil {
					t.Errorf("job energy: %v", err)
					return
				}
				s.Hosts()
				s.MetricsOf(host)
			}
		}(r)
	}

	writers.Wait()
	close(stop)
	readers.Wait()

	// Every host ends with the complete in-order series.
	for h := 0; h < hosts; h++ {
		series, err := s.Query(hostName(h), "node", 0, chunks*5)
		if err != nil {
			t.Fatal(err)
		}
		if series.Len() != chunks*5 {
			t.Fatalf("%s has %d samples, want %d", hostName(h), series.Len(), chunks*5)
		}
	}
	if got, want := m.Inserts.Value(), int64(hosts*chunks); got != want {
		t.Fatalf("inserts = %d, want %d", got, want)
	}
	if m.Queries.Value() == 0 {
		t.Fatal("no queries counted despite reader load")
	}
}
