// Package omni models NERSC's Operations Monitoring and Notification
// Infrastructure (OMNI, §II-B): a time-series store for the power
// telemetry of every host, plus a job registry so power data can be
// queried per job — the workflow of the paper's "previously-developed
// querying scripts" [20].
//
// The store is safe for concurrent use: in production many LDMS
// forwarders insert while analysis queries run.
package omni

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"vasppower/internal/obs"
	"vasppower/internal/timeseries"
)

// Metrics counts a Store's traffic — the reproduction's stand-in for
// OMNI's own ingest/query accounting. Inserts counts accepted Insert
// and InsertSample calls (rejected ones are not stored, so they are
// not counted); Queries counts Query calls, including the per-node
// queries JobPower fans out. Pass it to NewStore.
type Metrics struct {
	Inserts *obs.Counter
	Queries *obs.Counter
}

// NewMetrics registers the store metric set under "omni." in reg. A
// nil registry yields a usable all-no-op Metrics.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Inserts: reg.Counter("omni.inserts"),
		Queries: reg.Counter("omni.queries"),
	}
}

// Store is the telemetry database.
type Store struct {
	m      *Metrics
	mu     sync.RWMutex
	series map[string]map[string]timeseries.Series // host → metric → series
	jobs   map[string]JobRecord
}

// NewStore returns an empty store counting its traffic in m (nil means
// uncounted).
func NewStore(m *Metrics) *Store {
	if m == nil {
		m = new(Metrics)
	}
	return &Store{
		m:      m,
		series: make(map[string]map[string]timeseries.Series),
		jobs:   make(map[string]JobRecord),
	}
}

// JobRecord describes one batch job for job-scoped queries.
type JobRecord struct {
	ID    string
	User  string
	App   string
	Nodes []string
	Start float64
	End   float64
}

// Validate checks the record.
func (j JobRecord) Validate() error {
	switch {
	case j.ID == "":
		return fmt.Errorf("omni: job with empty ID")
	case len(j.Nodes) == 0:
		return fmt.Errorf("omni: job %s has no nodes", j.ID)
	case j.End <= j.Start:
		return fmt.Errorf("omni: job %s has empty time window [%v,%v]", j.ID, j.Start, j.End)
	}
	return nil
}

// Insert appends samples for (host, metric). Samples must continue
// strictly after any existing ones for that key.
func (s *Store) Insert(host, metric string, data timeseries.Series) error {
	if host == "" || metric == "" {
		return fmt.Errorf("omni: empty host or metric")
	}
	if err := data.Validate(); err != nil {
		return err
	}
	if data.Len() == 0 {
		return nil
	}
	return s.appendSeries(host, metric, data.Times, data.Values)
}

// InsertSample appends a single sample for (host, metric) — the
// streaming ingest path the telemetry subscription pump uses, so a
// live run lands in the store one reading at a time instead of as a
// post-run batch. The same ordering contract as Insert applies: each
// sample must be strictly after the last one stored for its key.
func (s *Store) InsertSample(host, metric string, t, v float64) error {
	if host == "" || metric == "" {
		return fmt.Errorf("omni: empty host or metric")
	}
	if math.IsNaN(t) || math.IsInf(t, 0) || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("omni: non-finite sample for %s/%s", host, metric)
	}
	return s.appendSeries(host, metric, []float64{t}, []float64{v})
}

// appendSeries appends validated, non-empty samples to (host, metric)
// if they start strictly after the key's last stored sample, and
// counts the insert.
func (s *Store) appendSeries(host, metric string, times, values []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	hm := s.series[host]
	if hm == nil {
		hm = make(map[string]timeseries.Series)
		s.series[host] = hm
	}
	existing := hm[metric]
	if n := existing.Len(); n > 0 && times[0] <= existing.Times[n-1] {
		return fmt.Errorf("omni: out-of-order insert for %s/%s (%v after %v)",
			host, metric, times[0], existing.Times[n-1])
	}
	existing.Times = append(existing.Times, times...)
	existing.Values = append(existing.Values, values...)
	hm[metric] = existing
	s.m.Inserts.Inc()
	return nil
}

// Hosts returns all hosts with data, sorted.
func (s *Store) Hosts() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.series))
	for h := range s.series {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// MetricsOf returns the metrics stored for a host, sorted.
func (s *Store) MetricsOf(host string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	hm := s.series[host]
	out := make([]string, 0, len(hm))
	for m := range hm {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Query returns the samples of (host, metric) with t ∈ [t0, t1].
func (s *Store) Query(host, metric string, t0, t1 float64) (timeseries.Series, error) {
	s.m.Queries.Inc()
	s.mu.RLock()
	defer s.mu.RUnlock()
	hm, ok := s.series[host]
	if !ok {
		return timeseries.Series{}, fmt.Errorf("omni: unknown host %q", host)
	}
	data, ok := hm[metric]
	if !ok {
		return timeseries.Series{}, fmt.Errorf("omni: no metric %q for host %q", metric, host)
	}
	return data.Slice(t0, t1), nil
}

// RegisterJob records a job.
func (s *Store) RegisterJob(j JobRecord) error {
	if err := j.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.jobs[j.ID]; dup {
		return fmt.Errorf("omni: duplicate job %s", j.ID)
	}
	s.jobs[j.ID] = j
	return nil
}

// Job returns a registered job.
func (s *Store) Job(id string) (JobRecord, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobRecord{}, fmt.Errorf("omni: unknown job %q", id)
	}
	return j, nil
}

// Jobs returns all registered job IDs, sorted.
func (s *Store) Jobs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// JobPower returns, for each node of the job, the given metric's
// samples within the job window — the paper's core query.
func (s *Store) JobPower(jobID, metric string) (map[string]timeseries.Series, error) {
	j, err := s.Job(jobID)
	if err != nil {
		return nil, err
	}
	out := make(map[string]timeseries.Series, len(j.Nodes))
	for _, host := range j.Nodes {
		data, err := s.Query(host, metric, j.Start, j.End)
		if err != nil {
			return nil, fmt.Errorf("omni: job %s: %w", jobID, err)
		}
		out[host] = data
	}
	return out, nil
}

// JobEnergy estimates the job's node-level energy in joules by
// trapezoidal integration of every node's "node" metric.
func (s *Store) JobEnergy(jobID string) (float64, error) {
	perNode, err := s.JobPower(jobID, "node")
	if err != nil {
		return 0, err
	}
	var e float64
	for _, series := range perNode {
		e += series.Energy()
	}
	return e, nil
}
