package sched

import (
	"fmt"
	"math"
	"sort"

	"vasppower/internal/rng"
	"vasppower/internal/sim"
)

// resultView is a Result as its callers read it: the exported fields
// and the rows Outcomes builds. Two simulations agree when their views
// are deeply equal; the records the rows are built from are not
// compared.
type resultView struct {
	Result   Result
	Outcomes []JobOutcome
}

// view returns r's view.
func view(r Result) resultView {
	outcomes := r.Outcomes()
	r.log = nil
	return resultView{Result: r, Outcomes: outcomes}
}

// simulateOracle is the pre-refactor simulate loop, retained as the
// reference implementation for differential tests: a 30-second
// cycle ticker that rescans the entire waiting queue (O(cycles ×
// queue)), per-job arrival closures, and a string-keyed active map.
// The incremental loop in Simulate must produce bit-identical Results
// on every input the oracle can run; the oracle returns the view of
// the Result it would have built (its outcomes as the rows).
//
// Limitations (by construction, do not fix): it ignores
// cfg.BudgetSchedule (constant-budget only), and a job mix that can
// never finish (e.g. a job whose reservation exceeds the budget
// forever) ticks forever instead of returning the "never started"
// error — the incremental loop detects that deadlock.
//
// Its one change since the refactor is the tie-break of the final
// sort: outcomes are ordered by ID and then by arrival sequence (the
// job's index in the sorted queue), as Simulate orders them, so jobs
// sharing an ID cannot come out in different orders from the two.
func simulateOracle(cfg SimConfig, jobs []Job) (resultView, error) {
	if cfg.ClusterNodes <= 0 {
		return resultView{}, fmt.Errorf("sched: cluster size %d", cfg.ClusterNodes)
	}
	if cfg.Policy == nil || cfg.Catalog == nil {
		return resultView{}, fmt.Errorf("sched: missing policy or catalog")
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return resultView{}, err
		}
		if j.Nodes > cfg.ClusterNodes {
			return resultView{}, fmt.Errorf("sched: job %s needs %d nodes, cluster has %d", j.ID, j.Nodes, cfg.ClusterNodes)
		}
	}
	queue := append([]Job(nil), jobs...)
	SortJobs(queue)

	var jitter *rng.Stream
	if cfg.JitterSeed != 0 {
		jitter = rng.New(cfg.JitterSeed)
	}

	type running struct {
		job     Job
		seq     int // index in queue
		outcome JobOutcome
	}
	engine := sim.New()
	freeNodes := cfg.ClusterNodes
	reservedW := float64(cfg.ClusterNodes) * cfg.IdleNodeW
	res := Result{Policy: cfg.Policy.Name(), BudgetW: cfg.BudgetW, ClusterNodes: cfg.ClusterNodes}
	res.PeakPowerW = reservedW
	remaining := len(queue) // jobs not yet completed (or dropped)

	active := map[string]*running{}
	var finished []*running

	// tryStart greedily starts queued jobs (FIFO with first-fit skip,
	// like a backfilling scheduler without reservations).
	var waiting []int // indices into queue
	tryStart := func(now float64) {
		kept := waiting[:0]
		for _, seq := range waiting {
			j := queue[seq]
			class := Classify(j.Bench.Method)
			cap := cfg.Policy.Cap(class)
			perNodeW := cfg.Policy.BudgetPowerPerNode(class)
			needW := float64(j.Nodes) * (perNodeW - cfg.IdleNodeW)
			fits := j.Nodes <= freeNodes &&
				(cfg.BudgetW <= 0 || reservedW+needW <= cfg.BudgetW)
			if !fits {
				kept = append(kept, seq)
				continue
			}
			prof, err := cfg.Catalog.get(&j.Bench, j.Nodes, cap)
			if err != nil {
				// Unrunnable configuration: drop the job rather than
				// deadlocking the queue.
				remaining--
				res.Dropped++
				res.DroppedIDs = append(res.DroppedIDs, j.ID)
				continue
			}
			rt := prof.Runtime
			if jitter != nil {
				rt *= jitter.LogNormal(0, 0.02)
			}
			freeNodes -= j.Nodes
			reservedW += needW
			if reservedW > res.PeakPowerW {
				res.PeakPowerW = reservedW
			}
			r := &running{job: j, seq: seq, outcome: JobOutcome{
				ID: j.ID, Class: class, CapW: cap,
				Start: now, End: now + rt, Wait: now - j.Arrival,
				Runtime: rt, PerfLoss: prof.PerfLoss(),
				EnergyJ:     prof.EnergyJ,
				PowerW:      float64(j.Nodes) * perNodeW,
				Nodes:       j.Nodes,
				ActualMeanW: float64(j.Nodes) * prof.MeanNodeW,
			}}
			active[j.ID] = r
			jj := j
			engine.At(now+rt, func() {
				freeNodes += jj.Nodes
				reservedW -= needW
				finished = append(finished, r)
				delete(active, jj.ID)
				remaining--
			})
		}
		waiting = kept
	}

	// Arrival events enqueue jobs; a 30-second cycle ticker runs the
	// scheduling pass.
	for seq, j := range queue {
		engine.At(j.Arrival, func() {
			waiting = append(waiting, seq)
		})
	}
	var cycle func()
	cycle = func() {
		tryStart(engine.Now())
		if remaining > 0 {
			engine.At(engine.Now()+CycleSeconds, cycle)
		}
	}
	engine.At(0, cycle)
	for engine.Step() {
	}

	if len(waiting) > 0 {
		return resultView{}, fmt.Errorf("sched: %d jobs never started", len(waiting))
	}
	sort.Slice(finished, func(i, k int) bool {
		a, b := finished[i], finished[k]
		if a.outcome.ID != b.outcome.ID {
			return a.outcome.ID < b.outcome.ID
		}
		return a.seq < b.seq
	})
	var outcomes []JobOutcome
	for _, r := range finished {
		outcomes = append(outcomes, r.outcome)
	}
	res.Completed = len(outcomes)
	var waitSum, lossSum float64
	for _, o := range outcomes {
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
	return resultView{Result: res, Outcomes: outcomes}, nil
}

// drawLoopOracle is the lazy synthetic-mix generator as it stood
// before mixes were drawn into a table, retained as the reference for
// the table's records: one draw per Next, each job a full Job with its
// ID formatted on the spot. It takes the draw table as a parameter so
// a test can include an entry that does not resolve.
func drawLoopOracle(mix []mixEntry, n int, mean float64, seed uint64) []Job {
	r := rng.New(seed)
	t := 0.0
	var jobs []Job
	for i := 0; i < n; i++ {
		t += r.Exponential(mean)
		x := r.Float64()
		pick := &mix[len(mix)-1]
		acc := 0.0
		for k := range mix {
			acc += mix[k].weight
			if x <= acc {
				pick = &mix[k]
				break
			}
		}
		if !pick.ok {
			continue
		}
		jobs = append(jobs, Job{
			ID:      fmt.Sprintf("job%04d", i),
			Bench:   pick.bench,
			Nodes:   pick.nodes[r.IntN(len(pick.nodes))],
			Arrival: t,
		})
	}
	return jobs
}
