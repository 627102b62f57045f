package sched

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"vasppower/internal/rng"
	"vasppower/internal/workloads"
)

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

// mixJob is one job of a SyntheticMix, 16 bytes where a Job is 336:
// the benchmark is named by its entry in the table and the ID by where
// it ends in the table's ID buffer (it starts where the previous job's
// ends). The widths bound a table at 2^32 bytes of IDs (over 400M
// drawn jobs) and 2^16 entries and nodes.
type mixJob struct {
	arrival float64
	idEnd   uint32
	entry   uint16 // index into SyntheticMix.benches
	nodes   uint16
}

// MixPair is one distinct (benchmark, node count) configuration a
// SyntheticMix drew.
type MixPair struct {
	Bench workloads.Benchmark
	Nodes int
}

// SyntheticMix is a job table: jobs in arrival order as compact
// records, every ID in one string, and the jobs' ID order. It is what
// every simulation reads (SimulateMix). It is read-only once built, so
// any number of simulations can read one table at once: the three
// policies of a comparison share one draw, one set of ID strings and
// one ordering of the jobs by ID.
type SyntheticMix struct {
	benches []workloads.Benchmark // the table's entries, each a distinct value
	jobs    []mixJob
	ids     string  // every job's ID, back to back
	order   []int32 // ID order (Result.Outcomes order): at each position, a job's arrival index
	pairs   []MixPair
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
// the job is "job%04d" of i and its entry the picked one (an
// unresolved entry's bench is never read). Every ID is written into
// one buffer, sized up front, so the whole mix makes one ID allocation
// and each ID is a substring of it. The jobs are then ordered by ID
// (orderByID).
func drawMix(mix []mixEntry, n int, mean float64, seed uint64) *SyntheticMix {
	r := rng.New(seed)
	m := &SyntheticMix{benches: make([]workloads.Benchmark, len(mix)), jobs: make([]mixJob, 0, max(n, 0))}
	for k := range mix {
		m.benches[k] = mix[k].bench
	}
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
	m.order = m.orderByID()
	return m
}

// orderByID returns the jobs' arrival indices in ID order, without a
// sort.
// IDs are "job%04d" of the draw index, which rises with the job index,
// so the jobs of one ID width form a contiguous run already in ID
// order ("job9999" < "job10000" does not hold across widths, but
// within one width string order is numeric order). The ID order is
// the merge of those runs — at most six for a mix the table can hold —
// by string comparison of the runs' heads. IDs are distinct, so the
// order is total.
func (m *SyntheticMix) orderByID() []int32 {
	n := len(m.jobs)
	order := make([]int32, n)
	var next, end []int // per run: its next unplaced job, and its end
	for i := 0; i < n; i++ {
		if i == 0 || len(m.id(i)) != len(m.id(i-1)) {
			if i > 0 {
				end = append(end, i)
			}
			next = append(next, i)
		}
	}
	end = append(end, n)
	for p := range order {
		best := -1
		for r := range next {
			if next[r] < end[r] && (best < 0 || m.id(next[r]) < m.id(next[best])) {
				best = r
			}
		}
		order[p] = int32(next[best])
		next[best]++
	}
	return order
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

// jobTable builds the table of jobs already validated and in SortJobs
// order: each distinct Benchmark value becomes one entry (compared
// whole, so two benchmarks sharing a name but not every field are
// entries apart), the IDs go back to back into one buffer, and the
// order is one stable sort of the job indices by ID, which puts jobs
// sharing an ID in arrival order. A job needing more nodes, or a
// mix of more benchmarks, than a record holds is an error.
func jobTable(jobs []Job) (*SyntheticMix, error) {
	m := &SyntheticMix{jobs: make([]mixJob, len(jobs))}
	size := 0
	for i := range jobs {
		size += len(jobs[i].ID)
	}
	if uint64(size) > math.MaxUint32 {
		return nil, fmt.Errorf("sched: %d bytes of job IDs, more than a job table holds (%d)", size, math.MaxUint32)
	}
	var ids strings.Builder
	ids.Grow(size)
	for i := range jobs {
		j := &jobs[i]
		if j.Nodes > math.MaxUint16 {
			return nil, fmt.Errorf("sched: job %s needs %d nodes, more than a job table holds (%d)", j.ID, j.Nodes, math.MaxUint16)
		}
		e := slices.Index(m.benches, j.Bench)
		if e < 0 {
			if len(m.benches) > math.MaxUint16 {
				return nil, fmt.Errorf("sched: job %s brings the mix to %d distinct benchmarks, more than a job table holds (%d)",
					j.ID, len(m.benches)+1, math.MaxUint16+1)
			}
			e = len(m.benches)
			m.benches = append(m.benches, j.Bench)
		}
		ids.WriteString(j.ID)
		m.jobs[i] = mixJob{arrival: j.Arrival, idEnd: uint32(ids.Len()), entry: uint16(e), nodes: uint16(j.Nodes)}
	}
	m.ids = ids.String()
	m.order = make([]int32, len(jobs))
	for i := range m.order {
		m.order[i] = int32(i)
	}
	slices.SortStableFunc(m.order, func(a, b int32) int { return strings.Compare(m.id(int(a)), m.id(int(b))) })
	return m, nil
}

// job returns job i of the table as a Job.
func (m *SyntheticMix) job(i int) Job {
	j := &m.jobs[i]
	return Job{ID: m.id(i), Bench: m.benches[j.entry], Nodes: int(j.nodes), Arrival: j.arrival}
}

// SyntheticJobMix builds a reproducible mix of VASP jobs drawn from
// the Table I suite with Poisson-ish arrivals — the workload for the
// scheduler ablation — as a slice of Jobs: the jobs of
// NewSyntheticMix(n, meanInterArrival, seed), in arrival order.
// Simulations should keep the compact table instead.
func SyntheticJobMix(n int, meanInterArrival float64, seed uint64) []Job {
	m := NewSyntheticMix(n, meanInterArrival, seed)
	jobs := make([]Job, len(m.jobs))
	for i := range jobs {
		jobs[i] = m.job(i)
	}
	return jobs
}
