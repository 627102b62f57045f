package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"vasppower/internal/rng"
	"vasppower/internal/sim"
	"vasppower/internal/timeseries"
	"vasppower/internal/workloads"
)

// CycleSeconds is the scheduling cycle length; the paper notes power
// capping decisions fit "within each scheduling cycle, usually 30
// seconds" (§VI-A).
const CycleSeconds = 30.0

// BudgetPhase is one step of a time-varying facility power envelope:
// from Start seconds on, the facility budget is BudgetW watts (0 =
// unconstrained from then on). A schedule of phases models the
// envelopes real facilities live under — demand-response windows,
// time-of-day tariffs, co-scheduled partitions — so cap policies can
// be ablated against a realistic envelope rather than one flat cap.
type BudgetPhase struct {
	Start   float64
	BudgetW float64
}

// SimConfig configures one scheduler simulation.
type SimConfig struct {
	ClusterNodes int
	// BudgetW is the facility power budget for the GPU partition; 0
	// disables budget packing (nodes are the only constraint).
	BudgetW float64
	// BudgetSchedule optionally varies the budget over time: BudgetW
	// applies until the first phase starts, then each phase's BudgetW
	// from its Start on. Phases must be sorted by Start. A budget drop
	// never kills running jobs; it only blocks new starts until
	// reservations drain below the new envelope.
	BudgetSchedule []BudgetPhase
	// IdleNodeW is the power reserved per idle node.
	IdleNodeW float64
	Policy    Policy
	Catalog   *Catalog
	// JitterSeed adds per-job runtime jitter (0 = none).
	JitterSeed uint64
}

// JobOutcome records one job's scheduling history.
type JobOutcome struct {
	ID       string
	Class    Class
	CapW     float64
	Start    float64
	End      float64
	Wait     float64
	Runtime  float64
	PerfLoss float64
	EnergyJ  float64
	PowerW   float64 // reserved node power × nodes while running
	Nodes    int
	// ActualMeanW is the measured mean node power × nodes — what the
	// job really draws, as opposed to what the policy reserved.
	ActualMeanW float64
}

// Result summarizes one policy run over a job mix. Outcomes are
// sorted by job ID, and jobs sharing an ID by arrival sequence.
type Result struct {
	Policy       string
	Completed    int
	Makespan     float64
	TotalEnergyJ float64
	MeanWait     float64
	MaxWait      float64
	PeakPowerW   float64 // highest reserved power at any instant
	MeanPerfLoss float64
	Throughput   float64 // jobs per hour over the makespan
	Outcomes     []JobOutcome
	BudgetW      float64
	ClusterNodes int
	// Dropped counts jobs discarded because their configuration could
	// not be profiled (the catalog lookup failed); DroppedIDs lists them in
	// drop order. A silent drop is a debugging dead end — a facility
	// run that "completes" 99,960 of 100,000 jobs must say which 40
	// vanished and why.
	Dropped    int
	DroppedIDs []string
}

// Simulate runs the job mix through the scheduler under the policy.
//
// The loop is incremental and event-driven: jobs are index-addressed
// records in preallocated slices (no per-job closures or map
// entries), the waiting queue is a set of per-(nodes, class) FIFO
// buckets, and a packing pass runs only at 30-second cycle boundaries
// that follow a capacity change (arrival, completion, budget phase) —
// never on an unconditional ticker. The results are bit-identical to
// the retained reference implementation (see oracle_test.go and the
// equivalence argument in DESIGN.md): within a pass capacity only
// shrinks, so FIFO first-fit-skip over the whole queue equals
// repeatedly starting the lowest-sequence fitting bucket head, and a
// pass after an unchanged cycle is provably a no-op.
func Simulate(cfg SimConfig, jobs []Job) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return Result{}, err
		}
		if j.Nodes > cfg.ClusterNodes {
			return Result{}, fmt.Errorf("sched: job %s needs %d nodes, cluster has %d", j.ID, j.Nodes, cfg.ClusterNodes)
		}
	}
	queue := append([]Job(nil), jobs...)
	SortJobs(queue)
	return simulate(cfg, &sliceStream{jobs: queue}, false)
}

// SimulateStream is Simulate over a lazily generated job stream (see
// JobStream): the facility-scale entry point, where a 100k-job mix is
// pulled in arrival order instead of materializing up front. Jobs are
// validated as they are drawn, so an invalid job surfaces only once
// virtual time reaches its arrival. A *MixStream is read record by
// record, without a Job per draw; from the start of its mix, each
// outcome is written at the rank the mix gives it, so the Result needs
// no sort.
func SimulateStream(cfg SimConfig, src JobStream) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if src == nil {
		return Result{}, fmt.Errorf("sched: nil job stream")
	}
	return simulate(cfg, src, true)
}

// Validate checks the configuration before a simulation runs. Beyond
// the field checks it rejects a budget no job can ever start under: if
// every budget the envelope takes (BudgetW and each phase's) is a limit
// below the smallest reservation the cluster can hold — every node idle
// or running the class the policy reserves least for — the fit test
// fails for every job in every phase, and the run would simulate every
// arrival only to report that no job started.
func (cfg SimConfig) Validate() error {
	if cfg.ClusterNodes <= 0 {
		return fmt.Errorf("sched: cluster size %d", cfg.ClusterNodes)
	}
	if cfg.Policy == nil || cfg.Catalog == nil {
		return fmt.Errorf("sched: missing policy or catalog")
	}
	if math.IsNaN(cfg.BudgetW) || cfg.BudgetW < 0 {
		return fmt.Errorf("sched: invalid budget %v", cfg.BudgetW)
	}
	if math.IsNaN(cfg.IdleNodeW) || cfg.IdleNodeW < 0 {
		return fmt.Errorf("sched: invalid idle node power %v", cfg.IdleNodeW)
	}
	prev := math.Inf(-1)
	for i, ph := range cfg.BudgetSchedule {
		if math.IsNaN(ph.Start) || math.IsInf(ph.Start, 0) || ph.Start < 0 {
			return fmt.Errorf("sched: budget phase %d at invalid time %v", i, ph.Start)
		}
		if ph.Start < prev {
			return fmt.Errorf("sched: budget schedule not sorted at phase %d (%v after %v)", i, ph.Start, prev)
		}
		if math.IsNaN(ph.BudgetW) || ph.BudgetW < 0 {
			return fmt.Errorf("sched: budget phase %d with invalid budget %v", i, ph.BudgetW)
		}
		prev = ph.Start
	}
	floor := cfg.IdleNodeW
	for c := ClassDFT; c <= ClassRPA; c++ {
		floor = min(floor, cfg.Policy.BudgetPowerPerNode(c))
	}
	floor *= float64(cfg.ClusterNodes)
	if !(cfg.BudgetW > 0 && cfg.BudgetW < floor) {
		return nil
	}
	for _, ph := range cfg.BudgetSchedule {
		if !(ph.BudgetW > 0 && ph.BudgetW < floor) {
			return nil
		}
	}
	return fmt.Errorf("sched: budget %.0f W is below the idle reservation of %.0f W (%d nodes × %.0f W) in every budget phase: no job could ever start",
		cfg.BudgetW, float64(cfg.ClusterNodes)*cfg.IdleNodeW, cfg.ClusterNodes, cfg.IdleNodeW)
}

// bucket is one FIFO of waiting jobs with identical packing
// requirements — same node demand and same class ⇒ same cap,
// reservation, and fit test — threaded intrusively through
// jobRec.next. Because all members need exactly the same capacity, if
// the head does not fit, none behind it does — which is what turns the
// O(queue) first-fit scan into an O(buckets) head inspection.
type bucket struct {
	nodes    int
	class    Class
	capW     float64
	perNodeW float64
	needW    float64 // reservation above idle for one job of this bucket
	head     int32   // index into recs, -1 = empty
	tail     int32
}

// internedBench is one distinct benchmark of the mix, with its class
// and its entries in the profile table.
type internedBench struct {
	bench workloads.Benchmark
	class Class
	slots []int32 // indices into simState.slots, one per node count seen
}

// benchSlot is one entry of the per-simulation profile table: an
// interned benchmark in one bucket, and the catalog's answer for that
// (benchmark, nodes, cap), error included, from the first start of a
// job of the pair on.
type benchSlot struct {
	bench  int32 // index into simState.benches
	bucket int32 // index into simState.buckets
	filled bool
	prof   Profile
	err    error
}

// pendingJob is the next job the loop will enqueue, as its source drew
// it: the job's own fields and its benchmark's index in the intern
// table.
type pendingJob struct {
	id      string
	nodes   int
	arrival float64
	bench   int32 // index into simState.benches
}

// jobSource is the simulate loop's one input. draw yields the next
// job with its benchmark interned in s (validating on the stream path,
// in Job.Validate's order), ok false once the input is exhausted.
type jobSource interface {
	draw(s *simState) (p pendingJob, ok bool, err error)
}

// streamSource adapts any JobStream: it takes each Job from Next and
// interns its benchmark by value.
type streamSource struct{ src JobStream }

func (a streamSource) draw(s *simState) (pendingJob, bool, error) {
	j, ok := a.src.Next()
	if !ok {
		return pendingJob{}, false, nil
	}
	if s.lazy {
		if err := validateJob(j.ID, j.Nodes, j.Arrival); err != nil {
			return pendingJob{}, false, err
		}
	}
	bench, err := s.intern(&j.Bench)
	if err != nil {
		return pendingJob{}, false, err
	}
	return pendingJob{id: j.ID, nodes: j.Nodes, arrival: j.Arrival, bench: bench}, true, nil
}

// mixSource reads a MixStream's records in place. A mix entry is
// interned (and validated) the first time one of its jobs is drawn;
// every later draw of the entry is an index lookup, with no Job built
// and no benchmark compared.
type mixSource struct {
	c     *MixStream
	bench []int32 // interned index per mix entry, -1 until first drawn
}

func newMixSource(c *MixStream) *mixSource {
	a := &mixSource{c: c, bench: make([]int32, len(c.m.mix))}
	for i := range a.bench {
		a.bench[i] = -1
	}
	return a
}

func (a *mixSource) draw(s *simState) (pendingJob, bool, error) {
	c := a.c
	if c.i >= len(c.m.jobs) {
		return pendingJob{}, false, nil
	}
	j := &c.m.jobs[c.i]
	p := pendingJob{id: c.m.id(c.i), nodes: int(j.nodes), arrival: j.arrival, bench: a.bench[j.entry]}
	c.i++
	if err := validateJob(p.id, p.nodes, p.arrival); err != nil {
		return pendingJob{}, false, err
	}
	if p.bench < 0 {
		bench, err := s.intern(&c.m.mix[j.entry].bench)
		if err != nil {
			return pendingJob{}, false, err
		}
		a.bench[j.entry] = bench
		p.bench = bench
	}
	return p, true, nil
}

// jobRec is one job's hot record in the simulation: its profile-table
// slot (which names its benchmark and bucket, and so its reservation
// while running) and its queue linkage while waiting. Jobs are
// addressed by index (arrival sequence) everywhere — no string keys,
// no per-job closures. The record holds no Job and no outcome: the
// job's outcome lives in simState.outs at simState.at(index), and
// until the job starts the outcome's Start holds its arrival, which
// keeps a record at 8 bytes where the Job alone is 336.
type jobRec struct {
	slot int32 // index into simState.slots
	next int32 // next index in the same bucket's FIFO, -1 = none
}

// outKey is the sort key of one completed job on the sorting path (a
// source without ranks): the first eight bytes of its ID, big-endian
// and zero-padded, and its arrival sequence.
// Comparing prefixes orders IDs exactly as comparing the strings does
// whenever the prefixes differ; only a tie needs the full strings, and
// the sequence breaks ties between equal IDs.
type outKey struct {
	prefix uint64
	seq    int32
}

func idPrefix(id string) uint64 {
	var p uint64
	for i := 0; i < 8; i++ {
		p <<= 8
		if i < len(id) {
			p |= uint64(id[i])
		}
	}
	return p
}

// simState is the incremental simulate loop. All event callbacks are
// bound once (arriveFn/passFn/envFn/completeFn), so the steady state
// allocates nothing per job in the loop beyond the amortized growth of
// recs, outs and keys (a JobStream may allocate each job it yields; a
// MixStream does not, and its outs and ranks are sized up front).
type simState struct {
	cfg    SimConfig
	engine *sim.Engine
	jitter *rng.Stream
	src    jobSource
	lazy   bool // validate jobs as drawn (stream path)
	m      *Metrics

	recs []jobRec
	// outs holds every job's outcome: ID, Nodes and (as Start) the
	// arrival set at enqueue, the rest at start. With rank set, job i's
	// outcome sits at rank[i], its place in ID order; without, at i, in
	// arrival order, and result sorts.
	outs    []JobOutcome
	rank    []int32         // shared read-only with the mix; nil = sort at the end
	benches []internedBench // intern table
	slots   []benchSlot     // profile table behind jobRec.slot
	buckets []bucket

	pending      pendingJob
	havePending  bool
	arrivalArmed bool // an arrival-chain event is queued
	lastArrival  float64

	freeNodes int
	reservedW float64
	peakW     float64
	budgetW   float64
	phaseIdx  int

	waiting    int
	started    int
	droppedIDs []string
	dropped    []int32  // dropped jobs' indices into outs, in drop order
	done       []outKey // completed jobs, in completion order (sorting path only)

	passScheduled bool
	passAt        float64 // the armed pass's time, while passScheduled
	passes        int64
	holStalls     int64

	err error

	arriveFn   func()
	passFn     func()
	envFn      func()
	completeFn func(int)
}

func simulate(cfg SimConfig, src JobStream, lazy bool) (Result, error) {
	s := &simState{
		cfg:       cfg,
		engine:    sim.New(),
		src:       streamSource{src},
		lazy:      lazy,
		m:         metrics.Load(),
		freeNodes: cfg.ClusterNodes,
		reservedW: float64(cfg.ClusterNodes) * cfg.IdleNodeW,
		budgetW:   cfg.BudgetW,
	}
	s.peakW = s.reservedW
	if cfg.JitterSeed != 0 {
		s.jitter = rng.New(cfg.JitterSeed)
	}
	if c, ok := src.(*MixStream); ok {
		s.src = newMixSource(c)
		// The ranks number the whole mix, so they serve a cursor that
		// has not yet moved; one that has falls back to the sort.
		if c.i == 0 {
			s.rank = c.m.rank
			s.outs = make([]JobOutcome, len(s.rank))
		}
	}
	if h, ok := src.(SizeHinter); ok {
		if n := h.SizeHint(); n > 0 {
			s.recs = make([]jobRec, 0, n)
			if s.rank == nil {
				s.outs = make([]JobOutcome, 0, n)
				s.done = make([]outKey, 0, n)
			}
		}
	}
	s.arriveFn = s.arrive
	s.passFn = s.pass
	s.completeFn = s.complete

	// Kick off the arrival chain first, then the envelope chain, so an
	// arrival and a phase at the same instant keep that order (both
	// precede any pass at that instant regardless — see pass).
	s.advance()
	if s.err != nil {
		return Result{}, s.err
	}
	s.armArrival()
	if len(cfg.BudgetSchedule) > 0 {
		s.envFn = s.envelope
		s.engine.At(cfg.BudgetSchedule[0].Start, s.envFn)
	}
	for s.err == nil && s.engine.Step() {
	}
	if s.err != nil {
		return Result{}, s.err
	}
	if s.waiting > 0 {
		// Unlike the ticker loop (which would spin forever), running
		// out of events with jobs still queued is a detected deadlock:
		// nothing pending can ever free the capacity they need.
		return Result{}, fmt.Errorf("sched: %d jobs never started", s.waiting)
	}
	return s.result(), nil
}

// advance draws the next job from the source into pending (the source
// interns its benchmark, validating lazily on the stream path) and
// enforces arrival order on both paths. The lazy checks run in
// Job.Validate's order and then the cluster-size check, as Simulate
// runs them up front; a benchmark is validated once, when first
// interned.
func (s *simState) advance() {
	p, ok, err := s.src.draw(s)
	if err != nil {
		s.fail(err)
		return
	}
	if !ok {
		s.havePending = false
		return
	}
	if s.lazy && p.nodes > s.cfg.ClusterNodes {
		s.fail(fmt.Errorf("sched: job %s needs %d nodes, cluster has %d", p.id, p.nodes, s.cfg.ClusterNodes))
		return
	}
	if p.arrival < s.lastArrival {
		s.fail(fmt.Errorf("sched: job %s arrives at %v, before the previous job at %v (streams must be sorted by arrival)",
			p.id, p.arrival, s.lastArrival))
		return
	}
	s.pending = p
	s.lastArrival = p.arrival
	s.havePending = true
}

// fail stops the simulation with err.
func (s *simState) fail(err error) {
	s.err = err
	s.havePending = false
}

// arrive is the (single, reused) arrival-chain callback: drain every
// job whose arrival time has come, then arm the chain's next link.
func (s *simState) arrive() {
	s.arrivalArmed = false
	s.drainArrivals(s.engine.Now())
	s.armArrival()
}

// armArrival arms the arrival chain's next link at the pending job's
// arrival — unless a link is already queued, or a pass is armed at or
// after that arrival. Every pass drains the arrivals up to its own
// time before it packs, and while a pass is armed an arrival's only
// other effect, arming a pass, is a no-op, so such an arrival needs no
// event of its own: the pass enqueues it and re-arms the chain past
// itself (see pass).
func (s *simState) armArrival() {
	if s.arrivalArmed || s.err != nil || !s.havePending {
		return
	}
	if s.passScheduled && s.pending.arrival <= s.passAt {
		return
	}
	s.arrivalArmed = true
	s.engine.At(s.pending.arrival, s.arriveFn)
}

// drainArrivals enqueues every job with arrival ≤ now. The pass
// callback also calls it before packing, which guarantees a pass at
// cycle boundary t sees all arrivals up to t, whether their chain link
// fires after the pass event (same-instant event order in the engine
// is creation order) or was never armed (see armArrival).
func (s *simState) drainArrivals(now float64) {
	n := 0
	for s.err == nil && s.havePending && s.pending.arrival <= now {
		s.enqueue(&s.pending)
		s.advance()
		n++
	}
	if n > 0 {
		s.schedulePass()
	}
}

// at returns the index in outs of the job at arrival index idx.
func (s *simState) at(idx int32) int32 {
	if s.rank != nil {
		return s.rank[idx]
	}
	return idx
}

// enqueue appends a job's record, writes its outcome where at puts it
// and links the record onto its bucket's FIFO.
func (s *simState) enqueue(j *pendingJob) {
	idx := int32(len(s.recs))
	slot := s.slotOf(j.bench, j.nodes)
	s.recs = append(s.recs, jobRec{slot: slot, next: -1})
	if s.rank == nil {
		s.outs = append(s.outs, JobOutcome{})
	}
	s.outs[s.at(idx)] = JobOutcome{ID: j.id, Start: j.arrival, Nodes: j.nodes}
	b := &s.buckets[s.slots[slot].bucket]
	if b.tail >= 0 {
		s.recs[b.tail].next = idx
	} else {
		b.head = idx
	}
	b.tail = idx
	s.waiting++
}

// slotOf returns the profile-table slot of the interned benchmark at
// the node count, found among the benchmark's own slots (one per node
// count it has run at). A new slot joins the (nodes, class) bucket,
// found by a scan of the handful of buckets or created with its
// policy-derived cap and reservation.
func (s *simState) slotOf(bench int32, nodes int) int32 {
	ib := &s.benches[bench]
	for _, si := range ib.slots {
		if s.buckets[s.slots[si].bucket].nodes == nodes {
			return si
		}
	}
	bi := int32(-1)
	for i := range s.buckets {
		if s.buckets[i].nodes == nodes && s.buckets[i].class == ib.class {
			bi = int32(i)
			break
		}
	}
	if bi < 0 {
		perNodeW := s.cfg.Policy.BudgetPowerPerNode(ib.class)
		bi = int32(len(s.buckets))
		s.buckets = append(s.buckets, bucket{
			nodes:    nodes,
			class:    ib.class,
			capW:     s.cfg.Policy.Cap(ib.class),
			perNodeW: perNodeW,
			needW:    float64(nodes) * (perNodeW - s.cfg.IdleNodeW),
			head:     -1,
			tail:     -1,
		})
	}
	si := int32(len(s.slots))
	s.slots = append(s.slots, benchSlot{bench: bench, bucket: bi})
	ib.slots = append(ib.slots, si)
	return si
}

// intern returns b's index in the benchmark table, appending it on
// first sight — after validating it, on the stream path. A mix draws
// from a handful of benchmarks, so a linear scan with == (Benchmark
// holds only value fields, and Validate reads nothing else) is the
// whole index; a MixStream calls it once per mix entry.
func (s *simState) intern(b *workloads.Benchmark) (int32, error) {
	for i := range s.benches {
		if s.benches[i].bench == *b {
			return int32(i), nil
		}
	}
	if s.lazy {
		if err := b.Validate(); err != nil {
			return 0, err
		}
	}
	s.benches = append(s.benches, internedBench{bench: *b, class: Classify(b.Method)})
	return int32(len(s.benches) - 1), nil
}

// profile returns the slot's profile under its bucket's node count
// and cap, asking the catalog only on the first start. The catalog
// never changes an entry it has returned, so the table answers every
// later start exactly as the catalog would; an error is kept too, so
// an unprofilable configuration is measured once per simulation
// rather than once per dropped job.
func (s *simState) profile(slot int32) (*Profile, error) {
	p := &s.slots[slot]
	if !p.filled {
		b := &s.buckets[p.bucket]
		p.prof, p.err = s.cfg.Catalog.get(&s.benches[p.bench].bench, b.nodes, b.capW)
		p.filled = true
	}
	return &p.prof, p.err
}

// schedulePass arms one packing pass at the next cycle boundary (the
// smallest multiple of CycleSeconds ≥ now), if none is armed and
// there is anything to pack. Passes are only ever armed here, from
// capacity-changing events — the event-driven replacement for the
// unconditional cycle ticker.
func (s *simState) schedulePass() {
	if s.passScheduled || s.waiting == 0 {
		return
	}
	s.passScheduled = true
	s.passAt = nextCycle(s.engine.Now())
	s.engine.At(s.passAt, s.passFn)
}

// nextCycle returns the smallest multiple of CycleSeconds ≥ t,
// guarding against the division rounding across the boundary in
// either direction.
func nextCycle(t float64) float64 {
	k := math.Ceil(t / CycleSeconds)
	q := k * CycleSeconds
	if q < t {
		q = (k + 1) * CycleSeconds
	}
	return q
}

// envelope is the budget-phase chain callback.
func (s *simState) envelope() {
	s.applyEnvelope(s.engine.Now())
	if s.phaseIdx < len(s.cfg.BudgetSchedule) {
		s.engine.At(s.cfg.BudgetSchedule[s.phaseIdx].Start, s.envFn)
	}
}

// applyEnvelope advances the budget to the latest phase with
// Start ≤ now. Any change arms a pass: a rise may admit waiting jobs,
// and treating drops the same way costs one O(buckets) no-op.
func (s *simState) applyEnvelope(now float64) {
	for s.phaseIdx < len(s.cfg.BudgetSchedule) && s.cfg.BudgetSchedule[s.phaseIdx].Start <= now {
		nb := s.cfg.BudgetSchedule[s.phaseIdx].BudgetW
		s.phaseIdx++
		if nb != s.budgetW {
			s.budgetW = nb
			s.schedulePass()
		}
	}
}

// pass is the packing pass, run only at cycle boundaries armed by
// schedulePass. It first catches up on same-instant state (budget
// phases, arrivals), then packs, then re-arms the arrival chain, which
// armArrival left unarmed for arrivals this pass would drain.
func (s *simState) pass() {
	now := s.engine.Now()
	s.applyEnvelope(now)
	s.drainArrivals(now)
	if s.err != nil {
		return
	}
	s.pack(now)
	s.passScheduled = false
	s.armArrival()
}

// pack repeatedly starts the lowest-arrival-sequence waiting job that
// fits the current capacity, which is exactly what one FIFO
// first-fit-skip scan over the whole queue would start (capacity only
// shrinks within a pass, so a job found unfittable stays unfittable,
// and within a bucket the head is always the first candidate). Cost:
// O(buckets) per started job plus O(buckets) to conclude nothing
// fits — the head-of-line early exit.
func (s *simState) pack(now float64) {
	s.passes++
	if s.m != nil {
		s.m.PackingPasses.Inc()
	}
	for {
		best := int32(-1)
		var bb *bucket
		for i := range s.buckets {
			b := &s.buckets[i]
			if b.head < 0 || b.nodes > s.freeNodes {
				continue
			}
			if s.budgetW > 0 && s.reservedW+b.needW > s.budgetW {
				continue
			}
			if best < 0 || b.head < best {
				best = b.head
				bb = b
			}
		}
		if best < 0 {
			break
		}
		rec := &s.recs[best]
		bb.head = rec.next
		if bb.head < 0 {
			bb.tail = -1
		}
		rec.next = -1
		s.waiting--
		s.startOrDrop(now, best, bb)
	}
	if s.waiting > 0 {
		s.holStalls++
		if s.m != nil {
			s.m.HOLStalls.Inc()
		}
	}
}

// startOrDrop starts the job at recs[idx] under its bucket's cap, or
// drops it (recorded, not silent) when its configuration cannot be
// profiled.
func (s *simState) startOrDrop(now float64, idx int32, b *bucket) {
	rec := &s.recs[idx]
	oi := s.at(idx)
	o := &s.outs[oi]
	prof, err := s.profile(rec.slot)
	if err != nil {
		// Unrunnable configuration: drop the job rather than
		// deadlocking the queue, and record it in the Result.
		s.droppedIDs = append(s.droppedIDs, o.ID)
		s.dropped = append(s.dropped, oi)
		if s.m != nil {
			s.m.JobsDropped.Inc()
		}
		return
	}
	rt := prof.Runtime
	if s.jitter != nil {
		rt *= s.jitter.LogNormal(0, 0.02)
	}
	s.freeNodes -= o.Nodes
	s.reservedW += b.needW
	if s.reservedW > s.peakW {
		s.peakW = s.reservedW
	}
	// Field by field, not as one literal: ID and Nodes stay, and no
	// 104-byte temporary is built and copied.
	o.Class, o.CapW = b.class, b.capW
	o.Wait = now - o.Start // Start held the arrival
	o.Start, o.End = now, now+rt
	o.Runtime, o.PerfLoss = rt, prof.PerfLoss()
	o.EnergyJ = prof.EnergyJ
	o.PowerW = float64(o.Nodes) * b.perNodeW
	o.ActualMeanW = float64(o.Nodes) * prof.MeanNodeW
	s.started++
	if s.m != nil {
		s.m.JobsStarted.Inc()
	}
	s.engine.AtArg(now+rt, s.completeFn, int(idx))
}

// complete is the (single, reused) completion callback: free the
// job's capacity, record its completion, and arm a pass if anything is
// waiting for that capacity.
func (s *simState) complete(idx int) {
	o := &s.outs[s.at(int32(idx))]
	s.freeNodes += o.Nodes
	s.reservedW -= s.buckets[s.slots[s.recs[idx].slot].bucket].needW
	if s.rank == nil {
		s.done = append(s.done, outKey{prefix: idPrefix(o.ID), seq: int32(idx)})
	}
	if s.m != nil {
		s.m.JobsCompleted.Inc()
	}
	s.schedulePass()
}

// result assembles the Result exactly as the reference loop does
// (completed jobs by ID, then arrival sequence, and the sums
// accumulated in that order, so the floating-point sums are
// bit-identical). outs is put in that order in place and its completed
// prefix returned: with ranks it already is, and only drops leave gaps
// to close (closeDropGaps); without, the completions' keys are sorted
// and outs permuted by them (orderOutcomes).
func (s *simState) result() Result {
	res := Result{
		Policy: s.cfg.Policy.Name(), BudgetW: s.cfg.BudgetW, ClusterNodes: s.cfg.ClusterNodes,
		Dropped: len(s.dropped), DroppedIDs: s.droppedIDs,
	}
	res.PeakPowerW = s.peakW
	if s.rank != nil {
		s.closeDropGaps()
	} else {
		s.orderOutcomes()
	}
	var outcomes []JobOutcome
	if n := len(s.outs) - len(s.dropped); n > 0 {
		// Full slice expression: an append to the Result must
		// reallocate rather than write into the records behind it.
		outcomes = s.outs[:n:n]
	}
	res.Outcomes = outcomes
	res.Completed = len(outcomes)
	var waitSum, lossSum float64
	for i := range outcomes {
		o := &outcomes[i]
		res.TotalEnergyJ += o.EnergyJ
		waitSum += o.Wait
		res.MaxWait = math.Max(res.MaxWait, o.Wait)
		lossSum += o.PerfLoss
		res.Makespan = math.Max(res.Makespan, o.End)
	}
	if len(outcomes) > 0 {
		res.MeanWait = waitSum / float64(len(outcomes))
		res.MeanPerfLoss = lossSum / float64(len(outcomes))
	}
	if res.Makespan > 0 {
		res.Throughput = float64(res.Completed) / (res.Makespan / 3600)
	}
	if s.m != nil {
		s.m.PeakReservedW.SetMax(int64(s.peakW))
	}
	return res
}

// closeDropGaps makes the completed jobs a prefix of the ranked outs,
// still in ID order: one stable pass moves each completed outcome down
// over the slots of the jobs dropped before it. The records left
// behind the prefix are unreachable (Result.Outcomes ends at its
// capacity), so the dropped ones are not kept there. It sorts
// s.dropped.
func (s *simState) closeDropGaps() {
	if len(s.dropped) == 0 {
		return
	}
	slices.Sort(s.dropped)
	w, k := int(s.dropped[0]), 0
	for i := w; i < len(s.outs); i++ {
		if k < len(s.dropped) && int(s.dropped[k]) == i {
			k++
			continue
		}
		s.outs[w] = s.outs[i]
		w++
	}
}

// orderOutcomes puts outs in ID order on the sorting path. It sorts
// the completions' keys (a prefix tie compares the full IDs, an ID tie
// the sequences) and permutes outs in place so that its first
// len(done) entries are the completed jobs in that order and the
// dropped jobs follow in drop order. Every job either completed or was
// dropped, so the sources — done's sequences, then the dropped
// indices — are a permutation of outs' indices; following each of its
// cycles once moves every outcome once, through one temporary. The
// source indices are consumed (set to -1) as they are applied.
func (s *simState) orderOutcomes() {
	outs := s.outs
	slices.SortFunc(s.done, func(a, b outKey) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		if c := strings.Compare(outs[a.seq].ID, outs[b.seq].ID); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for _, seq := range s.dropped {
		s.done = append(s.done, outKey{seq: seq})
	}
	src := s.done
	for i := range outs {
		if src[i].seq < 0 {
			continue // placed by an earlier cycle
		}
		tmp := outs[i]
		j := i
		for {
			k := int(src[j].seq)
			src[j].seq = -1
			if k == i {
				outs[j] = tmp
				break
			}
			outs[j] = outs[k]
			j = k
		}
	}
}

// Timelines reconstructs the cluster's power over the schedule as two
// step functions: what the policy reserved, and what the jobs
// actually drew (measured mean node power while running; idle nodes
// at idleNodeW in both). The gap between the two is the budget the
// policy could not hand out — the quantitative cost of scheduling
// without profiles (§VI-A).
func (r Result) Timelines(idleNodeW float64) (reserved, actual *timeseries.Trace) {
	type edge struct {
		t        float64
		dReserve float64
		dActual  float64
	}
	edges := make([]edge, 0, 2*len(r.Outcomes))
	for _, o := range r.Outcomes {
		idle := float64(o.Nodes) * idleNodeW
		edges = append(edges,
			edge{o.Start, o.PowerW - idle, o.ActualMeanW - idle},
			edge{o.End, -(o.PowerW - idle), -(o.ActualMeanW - idle)})
	}
	// Stable sort with the construction order (Outcomes are sorted by
	// ID) as the tiebreak, so coincident edges always apply in one
	// deterministic order and the step functions are reproducible.
	sort.SliceStable(edges, func(i, k int) bool { return edges[i].t < edges[k].t })
	base := float64(r.ClusterNodes) * idleNodeW
	reserved, actual = &timeseries.Trace{}, &timeseries.Trace{}
	curR, curA := base, base
	for _, e := range edges {
		// Coincident edges extend nothing: Append ignores an end at
		// the trace's current end.
		reserved.Append(e.t, curR)
		actual.Append(e.t, curA)
		curR += e.dReserve
		curA += e.dActual
	}
	return reserved, actual
}

// BudgetUtilization returns mean actual draw divided by mean reserved
// power over the schedule — how much of what the policy set aside was
// really used (1.0 = perfectly sized reservations).
func (r Result) BudgetUtilization(idleNodeW float64) float64 {
	reserved, actual := r.Timelines(idleNodeW)
	if reserved.Energy() <= 0 {
		return 0
	}
	return actual.Energy() / reserved.Energy()
}
