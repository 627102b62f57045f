package sched

import (
	"fmt"
	"math"
	"sort"

	"vasppower/internal/rng"
	"vasppower/internal/sim"
	"vasppower/internal/timeseries"
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

// Result summarizes one policy run over a job mix. Its per-job rows
// are built on demand (Outcomes) from the records the simulation kept.
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
	BudgetW      float64
	ClusterNodes int
	// Dropped counts jobs discarded because their configuration could
	// not be profiled (the catalog lookup failed); DroppedIDs lists them in
	// drop order. A silent drop is a debugging dead end — a facility
	// run that "completes" 99,960 of 100,000 jobs must say which 40
	// vanished and why.
	Dropped    int
	DroppedIDs []string

	log *jobLog // what Outcomes builds its rows from; nil if no simulation ran
}

// jobLog is what a finished simulation keeps for Result.Outcomes: the
// job table, the per-job records and the profile table and buckets
// they index. The engine and its event heap are not kept.
type jobLog struct {
	mix     *SyntheticMix // shared read-only with the other policies
	recs    []jobRec      // per job, in arrival order
	slots   []benchSlot   // profile table behind jobRec.slot
	buckets []bucket
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
//
// Simulate checks every job up front, sorts a copy (SortJobs) and runs
// the loop over a job table of it, as SimulateMix does.
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
	m, err := jobTable(queue)
	if err != nil {
		return Result{}, err
	}
	return simulate(cfg, m)
}

// SimulateMix is Simulate over a job table: the facility-scale entry
// point, and the one input the loop reads (Simulate builds a table of
// its jobs). Jobs are checked as they are drawn, so an invalid job
// surfaces only once virtual time reaches its arrival. The Result
// walks the table's ID order, so it needs no sort.
func SimulateMix(cfg SimConfig, m *SyntheticMix) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if m == nil {
		return Result{}, fmt.Errorf("sched: nil job table")
	}
	return simulate(cfg, m)
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

// tableEntry is one entry of the job table as a simulation sees it:
// the benchmark's class and its slots in the profile table.
type tableEntry struct {
	class Class
	slots []int32 // indices into jobLog.slots, one per node count seen
}

// benchSlot is one entry of the per-simulation profile table: a table
// entry in one bucket, and the catalog's answer for that (benchmark,
// nodes, cap), error included, from the first start of a job of the
// pair on.
type benchSlot struct {
	bench  int32 // index into the table's entries
	bucket int32 // index into jobLog.buckets
	filled bool
	prof   Profile
	err    error
}

// pendingJob is the next job the loop will enqueue, as drawn from the
// table: the job's own fields and its table entry.
type pendingJob struct {
	nodes   int
	arrival float64
	bench   int32 // index into the table's entries
}

// jobRec is one job's record in the simulation, 24 bytes: its
// profile-table slot (which names its benchmark and bucket, and so its
// cap and reservation), its queue linkage while waiting, and from its
// start on its start time and runtime. Jobs are addressed by index
// (arrival sequence) everywhere — no string keys, no per-job closures.
// Everything else in a job's outcome is the table's (ID, nodes,
// arrival) or its slot's (profile, class, cap), so no outcome is
// stored: Result.Outcomes derives the rows from the records.
type jobRec struct {
	slot  int32   // index into jobLog.slots
	next  int32   // next index in the same bucket's FIFO, -1 = none
	start float64 // start time, once started
	rt    float64 // runtime after jitter, once started
}

// simState is the incremental simulate loop. All event callbacks are
// bound once (arriveFn/passFn/envFn/completeFn) and the per-job
// records are sized from the table up front, so the loop allocates
// nothing per job.
type simState struct {
	jobLog
	cfg    SimConfig
	engine *sim.Engine
	jitter *rng.Stream
	next   int // the table's next job to draw
	m      *Metrics

	benches []tableEntry // per table entry

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
	droppedIDs []string // in drop order
	maxWait    float64  // over the jobs started
	makespan   float64  // the latest completion

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

func simulate(cfg SimConfig, m *SyntheticMix) (Result, error) {
	s := &simState{
		jobLog:    jobLog{mix: m, recs: make([]jobRec, 0, len(m.jobs))},
		cfg:       cfg,
		engine:    sim.New(),
		m:         metrics.Load(),
		benches:   make([]tableEntry, len(m.benches)),
		freeNodes: cfg.ClusterNodes,
		reservedW: float64(cfg.ClusterNodes) * cfg.IdleNodeW,
		budgetW:   cfg.BudgetW,
	}
	for e := range s.benches {
		s.benches[e].class = Classify(m.benches[e].Method)
	}
	s.peakW = s.reservedW
	if cfg.JitterSeed != 0 {
		s.jitter = rng.New(cfg.JitterSeed)
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

// advance draws the table's next job into pending and checks it: the
// job check, then the cluster size (the checks Simulate runs up front,
// in its order), then arrival order.
func (s *simState) advance() {
	m := s.mix
	if s.next >= len(m.jobs) {
		s.havePending = false
		return
	}
	j, id := &m.jobs[s.next], m.id(s.next)
	p := pendingJob{nodes: int(j.nodes), arrival: j.arrival, bench: int32(j.entry)}
	s.next++
	if err := validateJob(id, p.nodes, p.arrival); err != nil {
		s.fail(err)
		return
	}
	if p.nodes > s.cfg.ClusterNodes {
		s.fail(fmt.Errorf("sched: job %s needs %d nodes, cluster has %d", id, p.nodes, s.cfg.ClusterNodes))
		return
	}
	if p.arrival < s.lastArrival {
		s.fail(fmt.Errorf("sched: job %s arrives at %v, before the previous job at %v (a job table must be sorted by arrival)",
			id, p.arrival, s.lastArrival))
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

// enqueue appends a job's record and links it onto its bucket's FIFO.
func (s *simState) enqueue(j *pendingJob) {
	idx := int32(len(s.recs))
	slot := s.slotOf(j.bench, j.nodes)
	s.recs = append(s.recs, jobRec{slot: slot, next: -1})
	b := &s.buckets[s.slots[slot].bucket]
	if b.tail >= 0 {
		s.recs[b.tail].next = idx
	} else {
		b.head = idx
	}
	b.tail = idx
	s.waiting++
}

// slotOf returns the profile-table slot of the table entry at the
// node count, found among the benchmark's own slots (one per node
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
		p.prof, p.err = s.cfg.Catalog.get(&s.mix.benches[p.bench], b.nodes, b.capW)
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
	prof, err := s.profile(rec.slot)
	if err != nil {
		// Unrunnable configuration: drop the job rather than
		// deadlocking the queue, and record it in the Result.
		s.droppedIDs = append(s.droppedIDs, s.mix.id(int(idx)))
		if s.m != nil {
			s.m.JobsDropped.Inc()
		}
		return
	}
	rt := prof.Runtime
	if s.jitter != nil {
		rt *= s.jitter.LogNormal(0, 0.02)
	}
	s.freeNodes -= b.nodes
	s.reservedW += b.needW
	if s.reservedW > s.peakW {
		s.peakW = s.reservedW
	}
	rec.start, rec.rt = now, rt
	s.maxWait = math.Max(s.maxWait, now-s.mix.jobs[idx].arrival)
	if s.m != nil {
		s.m.JobsStarted.Inc()
	}
	s.engine.AtArg(now+rt, s.completeFn, int(idx))
}

// complete is the (single, reused) completion callback: free the
// job's capacity, record its completion (it fires at exactly start +
// runtime), and arm a pass if anything is waiting for that capacity.
func (s *simState) complete(idx int) {
	s.freeNodes += int(s.mix.jobs[idx].nodes)
	s.reservedW -= s.buckets[s.slots[s.recs[idx].slot].bucket].needW
	s.makespan = math.Max(s.makespan, s.engine.Now())
	if s.m != nil {
		s.m.JobsCompleted.Inc()
	}
	s.schedulePass()
}

// result assembles the Result exactly as the reference loop does: the
// sums run over the completed jobs by ID, then arrival sequence, in
// that order, so the floating-point sums are bit-identical. It walks
// the table's order once; a job is dropped exactly when its slot holds
// a catalog error. MaxWait and Makespan are maxima, taken as jobs
// start and complete.
func (s *simState) result() Result {
	log := s.jobLog
	res := Result{
		Policy: s.cfg.Policy.Name(), BudgetW: s.cfg.BudgetW, ClusterNodes: s.cfg.ClusterNodes,
		Dropped: len(s.droppedIDs), DroppedIDs: s.droppedIDs,
		PeakPowerW: s.peakW, MaxWait: s.maxWait, Makespan: s.makespan,
		log: &log,
	}
	var waitSum, lossSum float64
	for _, i := range s.mix.order {
		rec := &s.recs[i]
		p := &s.slots[rec.slot]
		if p.err != nil {
			continue
		}
		res.Completed++
		res.TotalEnergyJ += p.prof.EnergyJ
		waitSum += rec.start - s.mix.jobs[i].arrival
		lossSum += p.prof.PerfLoss()
	}
	if res.Completed > 0 {
		res.MeanWait = waitSum / float64(res.Completed)
		res.MeanPerfLoss = lossSum / float64(res.Completed)
	}
	if res.Makespan > 0 {
		res.Throughput = float64(res.Completed) / (res.Makespan / 3600)
	}
	if s.m != nil {
		s.m.PeakReservedW.SetMax(int64(s.peakW))
	}
	return res
}

// Outcomes returns the completed jobs' outcomes, sorted by job ID and
// jobs sharing an ID by arrival sequence (nil if none completed). Each
// call builds a fresh slice from the records the simulation kept.
func (r Result) Outcomes() []JobOutcome {
	l := r.log
	if l == nil || r.Completed == 0 {
		return nil
	}
	out := make([]JobOutcome, 0, r.Completed)
	for _, i := range l.mix.order {
		rec := &l.recs[i]
		p := &l.slots[rec.slot]
		if p.err != nil {
			continue
		}
		b := &l.buckets[p.bucket]
		j := &l.mix.jobs[i]
		nodes := int(j.nodes)
		out = append(out, JobOutcome{
			ID: l.mix.id(int(i)), Class: b.class, CapW: b.capW,
			Start: rec.start, End: rec.start + rec.rt, Wait: rec.start - j.arrival,
			Runtime: rec.rt, PerfLoss: p.prof.PerfLoss(), EnergyJ: p.prof.EnergyJ,
			PowerW: float64(nodes) * b.perNodeW, Nodes: nodes,
			ActualMeanW: float64(nodes) * p.prof.MeanNodeW,
		})
	}
	return out
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
	outcomes := r.Outcomes()
	edges := make([]edge, 0, 2*len(outcomes))
	for _, o := range outcomes {
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
