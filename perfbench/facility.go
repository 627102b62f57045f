package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"vasppower"
	"vasppower/internal/core"
	"vasppower/internal/experiments"
	"vasppower/internal/obs"
)

// The facility workload is `pmsched -preset facility`: 1,800 nodes and
// 100k streamed jobs under three capping policies.
const (
	facilityJobs     = 100000 // the preset's job count
	facilityArrival  = 5.0    // the preset's mean inter-arrival, seconds
	facilityLimitSec = 10     // latency limit of one run, for goodput_rps
	// facilityRun is the nominal run time on a 2-vCPU Xeon VM, which
	// sets how many runs fill the measured window.
	facilityRun = time.Second
)

func facilityArgs(seed uint64, extra ...string) []string {
	return append([]string{"-preset", "facility", "-seed", strconv.FormatUint(seed, 10)}, extra...)
}

// droppedColumn returns the "dropped" column of pmsched's policy table,
// one value per policy row.
func droppedColumn(stdout []byte) ([]string, error) {
	lines := strings.Split(string(stdout), "\n")
	col := -1
	var vals []string
	for _, ln := range lines {
		f := strings.Fields(ln)
		if col < 0 {
			if len(f) > 0 && f[0] == "policy" && f[len(f)-1] == "dropped" {
				col = len(f) - 1
			}
			continue
		}
		if len(f) == 0 {
			break
		}
		if strings.HasPrefix(f[0], "---") {
			continue
		}
		vals = append(vals, f[len(f)-1])
	}
	if col < 0 || len(vals) != 3 {
		return nil, fmt.Errorf("pmsched output has no three-row policy table with a dropped column")
	}
	return vals, nil
}

// facilityRuns checks each run: stdout identical to the first run and
// no policy dropping a job.
type facilityRuns struct {
	ref      []byte
	walls    []float64
	okWithin int
	rssKB    int64
}

func (f *facilityRuns) record(o *outcome, r procRun, err error, label string) {
	o.op()
	if err != nil {
		o.gate("%s: %v", label, err)
		return
	}
	f.walls = append(f.walls, r.wall)
	f.rssKB = max(f.rssKB, r.rssKB)
	dropped, err := droppedColumn(r.stdout)
	if err != nil {
		o.gate("%s: %v", label, err)
		return
	}
	for _, d := range dropped {
		if d != "0" {
			o.gate("%s: a policy dropped %s jobs", label, d)
			return
		}
	}
	switch {
	case f.ref == nil:
		f.ref = r.stdout
	case !bytes.Equal(r.stdout, f.ref):
		o.gate("%s: stdout differs from the first run at the same seed", label)
		return
	}
	if r.wall <= facilityLimitSec {
		f.okWithin++
	}
}

func facility(e *env) (*outcome, error) {
	o := newOutcome()
	seed := e.derive("facility")
	if e.trace {
		return o, e.facilityTraced(o, seed)
	}
	setup, err := e.setupVersion("pmsched")
	if err != nil {
		return nil, err
	}
	var runs facilityRuns
	err = e.loop(facilityRun, func(i int) error {
		r, err := e.run("pmsched", facilityArgs(seed)...)
		runs.record(o, r, err, fmt.Sprintf("run %d", i))
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.m["setup_s"] = setup
	e.cliMetrics(o, runs.walls, runs.okWithin, runs.rssKB)
	return o, e.paperErr(o)
}

// facilityTraced alternates plain runs with -manifest runs for the
// window (the manifest carries the sched.* and sim.* counters), then
// repeats pmsched's policy loop in process with each
// sched.SimulateStream call and each catalog measurement timed. What
// no layer explains is the traced runs' time outside pmsched's own
// clock plus the in-process loop's time outside the simulations.
func (e *env) facilityTraced(o *outcome, seed uint64) error {
	var runs facilityRuns
	var plain, traced, outside []float64
	var man obs.Manifest
	err := e.loop(facilityRun, func(i int) error {
		args := facilityArgs(seed)
		if i%2 == 1 {
			mf := filepath.Join(e.work, fmt.Sprintf("manifest-%d.json", i))
			args = append(args, "-manifest", mf)
			r, err := e.run("pmsched", args...)
			runs.record(o, r, err, fmt.Sprintf("traced run %d", i))
			if err != nil {
				return nil
			}
			man, err = readManifest(mf)
			if err != nil {
				return err
			}
			traced = append(traced, r.wall)
			// Process start, runtime init and exit: the part of the
			// run outside pmsched's own clock.
			outside = append(outside, r.wall-man.WallSeconds)
			return nil
		}
		r, err := e.run("pmsched", args...)
		runs.record(o, r, err, fmt.Sprintf("run %d", i))
		if err == nil {
			plain = append(plain, r.wall)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l := newLayers()
	l.fromSnapshot(*man.Metrics, man.Workers, man.WallSeconds)
	if l.m["sched.jobs_dropped"] != 0 {
		o.gate("sched.jobs_dropped=%g", l.m["sched.jobs_dropped"])
	}
	l.m["trace_overhead_pct"] = (median(traced)/median(plain) - 1) * 100

	// The in-process loop mirrors cmd/pmsched: one catalog per policy,
	// measurements through the shared two-tier cache (memory only here).
	var computed []measureSpec
	seen := map[string]bool{}
	catalog := 0.0
	measure := func(spec core.MeasureSpec) (core.JobProfile, error) {
		start := time.Now()
		jp, err := experiments.CachedMeasureSpec(spec)
		catalog += time.Since(start).Seconds()
		if k := experiments.SpecKey(spec); !seen[k] {
			seen[k] = true
			computed = append(computed, measureSpec{bench: spec.Bench.Name, nodes: spec.Nodes, repeats: spec.Repeats, capW: spec.CapW, seed: spec.Seed})
		}
		return jp, err
	}
	simulated := 0.0
	loopStart := time.Now()
	for _, p := range []struct {
		metric string
		policy vasppower.SchedulerPolicy
	}{
		{"sched.simulate_nocap_s", vasppower.PolicyNoCap},
		{"sched.simulate_uniform_s", vasppower.PolicyUniform200},
		{"sched.simulate_profile_aware_s", vasppower.PolicyProfileAware},
	} {
		cat := vasppower.NewSchedulerCatalog(seed)
		cat.SetMeasure(measure)
		start := time.Now()
		res, err := vasppower.SimulateSchedulerStream(vasppower.SchedulerConfig{
			ClusterNodes: 1800, BudgetW: 2000 * 1000, IdleNodeW: 460,
			Policy: p.policy, Catalog: cat,
		}, vasppower.SyntheticJobStream(facilityJobs, facilityArrival, seed))
		d := time.Since(start).Seconds()
		if err != nil {
			return err
		}
		if res.Dropped != 0 {
			o.gate("in-process %s dropped %d jobs", res.Policy, res.Dropped)
		}
		l.m[p.metric] = d
		simulated += d
	}
	loop := time.Since(loopStart).Seconds()
	l.m["sched.catalog_s"] = catalog
	l.m["sched.ns_per_job"] = (simulated - catalog) / (3 * facilityJobs) * 1e9
	l.m["unattributed_s"] = median(outside) + loop - simulated
	if err := l.replay(computed); err != nil {
		return err
	}
	for k, v := range l.m {
		o.m[k] = v
	}
	return nil
}
