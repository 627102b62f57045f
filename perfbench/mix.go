package main

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"vasppower/internal/core"
	"vasppower/internal/experiments"
	"vasppower/internal/workloads"
)

// The powerd-mix traffic: an open loop at one fixed offered rate. The
// timed sequence is built from blocks of mixBlock requests. In each
// block the cold units sit at evenly spaced slots in a fixed pattern
// and every other slot is a hot repeat, and the fresh requests cycle
// through their benchmarks in a seeded order. The seed therefore
// changes which hot spec is asked when, which benchmark and seed each
// cold request carries, and the sweep sizes, but not how much of each
// kind of work a run offers or how it is spaced. Runs with different
// seeds stay comparable, and the tail measures service time and the
// queueing the load itself causes, not the chance that two heavy
// requests land together.
const (
	// mixRate is the offered load: about a quarter of the mix's
	// closed-loop capacity over mixConns connections (perfbench
	// -capacity; README.md records the measurement). Hits queue behind
	// misses on the same connections, and the server would still keep
	// up if it became three times slower, so the figures measure
	// service time and load-caused queueing, not a growing backlog.
	mixRate        = 200
	mixBlock       = 100  // requests per block
	hotSetSize     = 32   // distinct hot /v1/measure specs, warmed during set-up
	variantsPerHot = 4    // reordered-JSON spellings of each hot spec
	variantShare   = 0.25 // share of hot requests sent as a variant spelling
	zipfS          = 1.1  // Zipf exponent over the hot set
)

// coldUnit is one cold element of a block's fixed pattern.
type coldUnit int

const (
	// unitMeasurePair is a fresh-seed /v1/measure sent twice, one slot
	// apart. The copy arrives while the first is still being computed,
	// so the response cache coalesces it onto the same evaluation.
	unitMeasurePair coldUnit = iota
	// unitSweepPair is two fresh cap sweeps of the same benchmark and
	// seed from the same start cap, due at the same instant: the sweep
	// batcher merges their shared points within one batch window.
	unitSweepPair
	// unitSchedule is one small /v1/schedule request.
	unitSchedule
)

// coldPattern is a block's cold units, spread evenly over its slots:
// 4 fresh measures (8 requests), 4 fresh 8-16 point cap sweeps and 1
// schedule, so 13 of every 100 requests are cold and 87 are hot.
var coldPattern = []coldUnit{
	unitSweepPair, unitMeasurePair, unitMeasurePair, unitSchedule,
	unitSweepPair, unitMeasurePair, unitMeasurePair,
}

// sweepBenches are the Table I benchmarks cap sweeps run on: the two
// whose sweep points cost about the same (2-3 ms each), so sweep
// latency varies with the point count, not with which benchmark a
// seed happened to draw. The others cost 3-12x more per point and are
// measured as single points instead.
var sweepBenches = []string{"B.hR105_hse", "PdO2"}

// reqClass names what a request exercises in the server.
type reqClass int

const (
	classHot      reqClass = iota // canonical hot body: alias-index hit
	classVariant                  // reordered hot body: canonical-index hit on first sight
	classMeasure                  // fresh /v1/measure: engine miss, or coalesced onto one
	classSweep                    // fresh /v1/sweep: batcher + incremental sweep
	classSchedule                 // /v1/schedule: facility what-if
)

var classNames = [...]string{"hot", "variant", "measure", "sweep", "schedule"}

func (c reqClass) String() string { return classNames[c] }

// request is one generated HTTP request.
type request struct {
	at    float64 // due time, seconds after the window opens
	class reqClass
	path  string
	body  []byte
	// keys are the canonical measurement keys (experiments.SpecKey) the
	// request evaluates, used to attribute engine time to it.
	keys []string
}

// mixPlan is the generated traffic for one run.
type mixPlan struct {
	warm []request // sent once each during set-up, in order
	reqs []request // the timed sequence, in due order
}

type hotSpec struct {
	bench string
	nodes int
	capW  float64
	seed  uint64
}

func (h hotSpec) key() string {
	b, _ := workloads.ByName(h.bench)
	return experiments.SpecKey(core.MeasureSpec{Bench: b, Nodes: h.nodes, CapW: h.capW, Seed: h.seed})
}

// fields renders the spec's JSON members; explicit adds members that
// restate a default (the canonical index must still match them).
func (h hotSpec) fields(explicit bool) []string {
	f := []string{fmt.Sprintf("%q:%q", "bench", h.bench), fmt.Sprintf(`"nodes":%d`, h.nodes), fmt.Sprintf(`"seed":%d`, h.seed)}
	if h.capW > 0 {
		f = append(f, fmt.Sprintf(`"cap_w":%g`, h.capW))
	}
	if explicit {
		f = append(f, `"repeats":1`, `"platform":"perlmutter-a100"`)
	}
	return f
}

func (h hotSpec) request(class reqClass, body string) request {
	return request{class: class, path: "/v1/measure", body: []byte(body), keys: []string{h.key()}}
}

// newMix generates n timed requests from seed. The same seed always
// yields the same plan.
func newMix(seed uint64, n int) mixPlan {
	r := rand.New(rand.NewPCG(seed, 0x6d6978))
	benches := workloads.Names()
	caps := []float64{0, 200, 250, 300}
	hotSeed := 1 + r.Uint64()%1_000_000

	var plan mixPlan
	var hot []hotSpec
	seen := map[hotSpec]bool{}
	for len(hot) < hotSetSize {
		h := hotSpec{bench: benches[r.IntN(len(benches))], nodes: 1 + r.IntN(2), capW: caps[r.IntN(len(caps))], seed: hotSeed}
		if !seen[h] {
			seen[h] = true
			hot = append(hot, h)
		}
	}
	canonical := make([]request, len(hot))
	variants := make([][]request, len(hot))
	for i, h := range hot {
		canonical[i] = h.request(classHot, "{"+strings.Join(h.fields(false), ",")+"}")
		for v := 0; v < variantsPerHot; v++ {
			f := h.fields(v%2 == 1)
			r.Shuffle(len(f), func(a, b int) { f[a], f[b] = f[b], f[a] })
			variants[i] = append(variants[i], h.request(classVariant, "{ "+strings.Join(f, ", ")+" }"))
		}
	}
	plan.warm = append(plan.warm, canonical...)

	// Schedule requests share one catalog seed, warmed per policy
	// during set-up, so each costs a small simulation rather than a
	// catalog of cold measurements.
	policies := []string{"nocap", "uniform", "profile-aware"}
	schedSeed := 1 + r.Uint64()%1_000_000
	schedule := func(policy string, jobs int) request {
		return request{class: classSchedule, path: "/v1/schedule", body: []byte(fmt.Sprintf(
			`{"policy":%q,"cluster_nodes":8,"jobs":%d,"seed":%d}`, policy, jobs, schedSeed))}
	}
	for _, p := range policies {
		plan.warm = append(plan.warm, schedule(p, 16))
	}

	zipf := rand.NewZipf(r, zipfS, 1, hotSetSize-1)
	freshSeed := uint64(2_000_000_000) + r.Uint64()%1_000_000_000
	// Each cold unit cycles through every combination of its
	// parameters, so a run's cold work has the same composition for
	// every seed. A sweep pair asks for p and 24-p points (8 and 16,
	// 9 and 15, ... 16 and 8), so over a pass every pair shares
	// min(p, 24-p) points and evaluates max(p, 24-p).
	sweepPoints := []int{8, 9, 10, 11, 12, 13, 14, 15, 16}
	schedJobs := []int{6, 11, 16}
	nextMeasure := cycler(r, len(benches)*len(caps))
	nextSweepBench := cycler(r, len(sweepBenches))
	nextSweepPoints := cycler(r, len(sweepPoints))
	nextSchedule := cycler(r, len(policies)*len(schedJobs))
	slots := map[int]coldUnit{}
	for j, u := range coldPattern {
		slots[(2*j+1)*mixBlock/(2*len(coldPattern))] = u
	}
	slotTime := func(i int) float64 { return float64(i) / mixRate }
	for i := 0; len(plan.reqs) < n; i++ {
		u, cold := slots[i%mixBlock]
		switch {
		case !cold:
			k := int(zipf.Uint64())
			req := canonical[k]
			if r.Float64() < variantShare {
				req = variants[k][r.IntN(variantsPerHot)]
			}
			req.at = slotTime(i)
			plan.reqs = append(plan.reqs, req)
		case u == unitMeasurePair:
			freshSeed++
			v := nextMeasure()
			h := hotSpec{bench: benches[v%len(benches)], nodes: 1, capW: caps[v/len(benches)], seed: freshSeed}
			req := h.request(classMeasure, "{"+strings.Join(h.fields(false), ",")+"}")
			req.at = slotTime(i)
			plan.reqs = append(plan.reqs, req)
			i++
			req.at = slotTime(i)
			plan.reqs = append(plan.reqs, req)
		case u == unitSweepPair:
			freshSeed++
			bench := sweepBenches[nextSweepBench()]
			p := sweepPoints[nextSweepPoints()]
			for _, points := range []int{p, 24 - p} {
				req := capSweep(bench, points, freshSeed)
				req.at = slotTime(i)
				plan.reqs = append(plan.reqs, req)
			}
			i++
		default:
			v := nextSchedule()
			req := schedule(policies[v%len(policies)], schedJobs[v/len(policies)])
			req.at = slotTime(i)
			plan.reqs = append(plan.reqs, req)
		}
	}
	plan.reqs = plan.reqs[:n]
	return plan
}

// cycler returns a function yielding 0..n-1 in a seeded order that is
// reshuffled after every full pass, so each value's share of the draws
// is fixed.
func cycler(r *rand.Rand, n int) func() int {
	var perm []int
	return func() int {
		if len(perm) == 0 {
			perm = r.Perm(n)
		}
		v := perm[0]
		perm = perm[1:]
		return v
	}
}

// capSweep is a fresh cap sweep of points caps from 150 W in 15 W steps
// (at most 375 W, below the A100's 400 W TDP, so every point binds).
func capSweep(bench string, points int, seed uint64) request {
	const from, step = 150.0, 15.0
	to := from + float64(points-1)*step
	b, _ := workloads.ByName(bench)
	keys := make([]string, points)
	for i := range keys {
		keys[i] = experiments.SpecKey(core.MeasureSpec{Bench: b, CapW: from + float64(i)*step, Seed: seed})
	}
	return request{class: classSweep, path: "/v1/sweep", keys: keys, body: []byte(fmt.Sprintf(
		`{"kind":"cap","bench":%q,"seed":%d,"from_w":%g,"to_w":%g,"step_w":%g}`, bench, seed, from, to, step))}
}
