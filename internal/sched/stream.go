package sched

import (
	"strconv"
	"strings"

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

// mixSuite is the Table I draw table behind every synthetic mix:
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

// appendJobID appends i formatted as fmt's "job%04d" does for i ≥ 0.
func appendJobID(b []byte, i int) []byte {
	b = append(b, "job"...)
	for n := 1000; n > 1 && i < n; n /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(i), 10)
}

// idBytes returns the total length of the IDs of jobs 0 … n-1: seven
// bytes each ("job" and at least four digits), plus one per digit
// beyond four.
func idBytes(n int) int {
	if n <= 0 {
		return 0
	}
	total := 7 * n
	for lo := 10000; lo < n; lo *= 10 {
		total += n - lo
	}
	return total
}

// mixJob is one drawn job of a SyntheticMix, 16 bytes where a Job is
// 336: the benchmark is named by its mix entry, resolved once at
// package init, and the ID by where it ends in the mix's ID buffer (it
// starts where the previous job's ends). The widths bound a mix at
// 2^32 bytes of IDs (over 400M jobs) and 2^16 entries and nodes.
type mixJob struct {
	arrival float64
	idEnd   uint32
	entry   uint16 // index into SyntheticMix.mix
	nodes   uint16
}

// MixPair is one distinct (benchmark, node count) configuration a
// SyntheticMix drew.
type MixPair struct {
	Bench workloads.Benchmark
	Nodes int
}

// SyntheticMix is a synthetic job mix drawn once into a table of
// compact records. It is read-only once built, so any number of
// MixStreams over it can feed concurrent simulations: the three
// policies of a comparison share one draw, one set of ID strings and
// one ranking of the jobs by ID.
type SyntheticMix struct {
	mix   []mixEntry
	jobs  []mixJob
	ids   string  // every job's ID, back to back
	rank  []int32 // per job, its position in ID order (Result.Outcomes order)
	pairs []MixPair
}

// NewSyntheticMix draws n jobs with Poisson-ish arrivals (mean
// inter-arrival seconds) from the Table I suite: heavy RPA/HSE jobs
// appear less often than plain DFT, mirroring production mixes.
func NewSyntheticMix(n int, meanInterArrival float64, seed uint64) *SyntheticMix {
	return drawMix(mixSuite, n, meanInterArrival, seed)
}

// drawMix is the one generator behind every synthetic mix. Draw i
// takes an exponential inter-arrival, a uniform pick over the entries'
// cumulative weights and, unless the picked entry is unresolved (the
// draw is then skipped, its ID unused), a uniform node-count option;
// the job is "job%04d" of i. Every ID is written into one buffer, sized
// up front, so the whole mix makes one ID allocation and each ID is a
// substring of it. The jobs are then ranked by ID (rankByID).
func drawMix(mix []mixEntry, n int, mean float64, seed uint64) *SyntheticMix {
	r := rng.New(seed)
	m := &SyntheticMix{mix: mix, jobs: make([]mixJob, 0, max(n, 0))}
	var ids strings.Builder
	ids.Grow(idBytes(n))
	var buf [24]byte
	seen := make([]uint64, len(mix)) // per entry, a bit per node option drawn (entries have far fewer than 64)
	t := 0.0
	for i := 0; i < n; i++ {
		t += r.Exponential(mean)
		x := r.Float64()
		k := len(mix) - 1
		acc := 0.0
		for e := range mix {
			acc += mix[e].weight
			if x <= acc {
				k = e
				break
			}
		}
		pick := &mix[k]
		if !pick.ok {
			continue
		}
		o := r.IntN(len(pick.nodes))
		if bit := uint64(1) << o; seen[k]&bit == 0 {
			seen[k] |= bit
			m.pairs = append(m.pairs, MixPair{Bench: pick.bench, Nodes: pick.nodes[o]})
		}
		ids.Write(appendJobID(buf[:0], i))
		m.jobs = append(m.jobs, mixJob{
			arrival: t,
			idEnd:   uint32(ids.Len()),
			entry:   uint16(k),
			nodes:   uint16(pick.nodes[o]),
		})
	}
	m.ids = ids.String()
	m.rank = m.rankByID()
	return m
}

// rankByID returns each job's position in ID order, without a sort.
// IDs are "job%04d" of the draw index, which rises with the job index,
// so the jobs of one ID width form a contiguous run already in ID
// order ("job9999" < "job10000" does not hold across widths, but
// within one width string order is numeric order). The ID order is
// the merge of those runs — at most six for a mix the table can hold —
// by string comparison of the runs' heads. IDs are distinct, so the
// order is total.
func (m *SyntheticMix) rankByID() []int32 {
	n := len(m.jobs)
	rank := make([]int32, n)
	var next, end []int // per run: its next unranked job, and its end
	for i := 0; i < n; i++ {
		if i == 0 || len(m.id(i)) != len(m.id(i-1)) {
			if i > 0 {
				end = append(end, i)
			}
			next = append(next, i)
		}
	}
	end = append(end, n)
	for p := range rank {
		best := -1
		for r := range next {
			if next[r] < end[r] && (best < 0 || m.id(next[r]) < m.id(next[best])) {
				best = r
			}
		}
		rank[next[best]] = int32(p)
		next[best]++
	}
	return rank
}

// id returns job i's ID.
func (m *SyntheticMix) id(i int) string {
	start := uint32(0)
	if i > 0 {
		start = m.jobs[i-1].idEnd
	}
	return m.ids[start:m.jobs[i].idEnd]
}

// Validate returns the error a simulation of the mix would stop at, or
// nil: the job check's error for the first job, in arrival order, that
// fails it. A mix's arrivals are running sums of draws of one mean's
// sign, so they move in one direction, and once non-finite they stay
// so: if any job fails, the first or the last does, and a valid mix
// costs two checks.
func (m *SyntheticMix) Validate() error {
	n := len(m.jobs)
	if n == 0 || m.check(0) == nil && m.check(n-1) == nil {
		return nil
	}
	for i := range m.jobs {
		if err := m.check(i); err != nil {
			return err
		}
	}
	return nil
}

// check applies the job check to job i.
func (m *SyntheticMix) check(i int) error {
	return validateJob(m.id(i), int(m.jobs[i].nodes), m.jobs[i].arrival)
}

// Pairs returns the distinct (benchmark, nodes) configurations the mix
// drew, in the order of their first draw — everything a scheduler
// catalog can be asked to profile for this mix. The slice is shared;
// do not modify it.
func (m *SyntheticMix) Pairs() []MixPair { return m.pairs }

// Stream returns a new cursor at the start of the mix.
func (m *SyntheticMix) Stream() *MixStream { return &MixStream{m: m} }

// MixStream is a cursor over a SyntheticMix: a JobStream yielding its
// jobs in arrival order. A cursor is not safe for concurrent use; the
// mix behind it is, so give each simulation its own cursor.
// SimulateStream reads a MixStream's records directly rather than
// through Next.
type MixStream struct {
	m *SyntheticMix
	i int
}

// SyntheticJobStream returns a cursor over a freshly drawn
// NewSyntheticMix(n, meanInterArrival, seed). Draining it yields
// exactly SyntheticJobMix(n, meanInterArrival, seed).
func SyntheticJobStream(n int, meanInterArrival float64, seed uint64) *MixStream {
	return NewSyntheticMix(n, meanInterArrival, seed).Stream()
}

// Next implements JobStream.
func (c *MixStream) Next() (Job, bool) {
	if c.i >= len(c.m.jobs) {
		return Job{}, false
	}
	j := &c.m.jobs[c.i]
	id := c.m.id(c.i)
	c.i++
	return Job{ID: id, Bench: c.m.mix[j.entry].bench, Nodes: int(j.nodes), Arrival: j.arrival}, true
}

// SizeHint implements SizeHinter: the exact number of jobs left.
func (c *MixStream) SizeHint() int { return len(c.m.jobs) - c.i }

// SyntheticJobMix builds a reproducible mix of VASP jobs drawn from
// the Table I suite with Poisson-ish arrivals — the workload for the
// scheduler ablation — as a slice of Jobs. It drains
// SyntheticJobStream; facility-scale callers should keep the compact
// SyntheticMix instead.
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
