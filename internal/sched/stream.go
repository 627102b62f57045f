package sched

import (
	"strconv"

	"vasppower/internal/rng"
	"vasppower/internal/workloads"
)

// JobStream feeds jobs to SimulateStream one at a time, in
// nondecreasing Arrival order (ties must already be in the order
// SortJobs would put them: by ID). Streaming is what lets a 100k-job
// facility mix run without materializing the whole slice up front —
// the simulate loop pulls jobs as virtual time reaches them.
type JobStream interface {
	// Next returns the next job; ok is false once the stream is
	// exhausted. Implementations must be deterministic: two streams
	// built from the same inputs yield the same jobs.
	Next() (j Job, ok bool)
}

// SizeHinter is optionally implemented by a JobStream that knows
// (an upper bound on) how many jobs remain; SimulateStream uses the
// hint to preallocate its per-job records.
type SizeHinter interface {
	SizeHint() int
}

// sliceStream adapts a pre-sorted, pre-validated []Job to JobStream.
type sliceStream struct {
	jobs []Job
	i    int
}

func (s *sliceStream) Next() (Job, bool) {
	if s.i >= len(s.jobs) {
		return Job{}, false
	}
	j := s.jobs[s.i]
	s.i++
	return j, true
}

func (s *sliceStream) SizeHint() int { return len(s.jobs) - s.i }

// mixEntry is one benchmark's weight and node-count options in the
// synthetic production mix, with the benchmark resolved once.
type mixEntry struct {
	name   string
	weight float64
	nodes  []int
	bench  workloads.Benchmark
	ok     bool // the name resolved; draws of an unresolved entry are skipped
}

// mixSuite is the Table I draw table for SyntheticJobMix/Stream:
// heavy RPA/HSE jobs appear less often than plain DFT, mirroring
// production mixes.
var mixSuite = resolveMix([]mixEntry{
	{name: "PdO2", weight: 0.25, nodes: []int{1, 2}},
	{name: "PdO4", weight: 0.20, nodes: []int{1, 2}},
	{name: "GaAsBi-64", weight: 0.20, nodes: []int{1, 2}},
	{name: "CuC_vdw", weight: 0.15, nodes: []int{1}},
	{name: "B.hR105_hse", weight: 0.10, nodes: []int{1, 2}},
	{name: "Si128_acfdtr", weight: 0.10, nodes: []int{1, 2}},
})

func resolveMix(mix []mixEntry) []mixEntry {
	for i := range mix {
		mix[i].bench, mix[i].ok = workloads.ByName(mix[i].name)
	}
	return mix
}

// jobID formats i as fmt's "job%04d" does for i ≥ 0.
func jobID(i int) string {
	var buf [24]byte
	b := append(buf[:0], "job"...)
	for n := 1000; n > 1 && i < n; n /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(i), 10))
}

// SyntheticStream generates the SyntheticJobMix job sequence lazily:
// the same jobs, in the same order, drawn from the same RNG stream,
// but one at a time. Not safe for concurrent use; build one stream
// per simulation.
type SyntheticStream struct {
	r    *rng.Stream
	mean float64
	n    int
	i    int
	t    float64
}

// SyntheticJobStream returns a stream of n jobs with Poisson-ish
// arrivals (mean inter-arrival seconds) drawn from the Table I suite.
// Draining it yields exactly SyntheticJobMix(n, meanInterArrival,
// seed) — the two share one generator.
func SyntheticJobStream(n int, meanInterArrival float64, seed uint64) *SyntheticStream {
	return &SyntheticStream{r: rng.New(seed), mean: meanInterArrival, n: n}
}

// Next implements JobStream.
func (s *SyntheticStream) Next() (Job, bool) {
	for s.i < s.n {
		i := s.i
		s.i++
		s.t += s.r.Exponential(s.mean)
		x := s.r.Float64()
		pick := &mixSuite[len(mixSuite)-1]
		acc := 0.0
		for k := range mixSuite {
			acc += mixSuite[k].weight
			if x <= acc {
				pick = &mixSuite[k]
				break
			}
		}
		if !pick.ok {
			continue
		}
		return Job{
			ID:      jobID(i),
			Bench:   pick.bench,
			Nodes:   pick.nodes[s.r.IntN(len(pick.nodes))],
			Arrival: s.t,
		}, true
	}
	return Job{}, false
}

// SizeHint implements SizeHinter (an upper bound: draws whose
// benchmark lookup fails are skipped, not emitted).
func (s *SyntheticStream) SizeHint() int { return s.n - s.i }

// SyntheticJobMix builds a reproducible mix of VASP jobs drawn from
// the Table I suite with Poisson-ish arrivals — the workload for the
// scheduler ablation. It drains SyntheticJobStream; prefer the stream
// form for facility-scale mixes that should not materialize up front.
func SyntheticJobMix(n int, meanInterArrival float64, seed uint64) []Job {
	src := SyntheticJobStream(n, meanInterArrival, seed)
	var jobs []Job
	for {
		j, ok := src.Next()
		if !ok {
			return jobs
		}
		jobs = append(jobs, j)
	}
}
