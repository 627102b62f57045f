package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"vasppower/internal/artifact"
	"vasppower/internal/core"
	"vasppower/internal/dft/method"
	"vasppower/internal/par"
	"vasppower/internal/report"
	"vasppower/internal/sched"
	"vasppower/internal/stats"
	"vasppower/internal/workloads"
)

// ExtEPoint is one MILC cap measurement.
type ExtEPoint struct {
	CapW     float64
	Runtime  float64
	RelPerf  float64
	GPUMode  float64
	NodeMode float64
}

// ExtEResult extends the study to NERSC's second application, as
// §VI-B reports was done next ("recently applied to NERSC's second
// top application, MILC" [35]): lattice QCD's bandwidth-bound CG
// solves give a flat, moderate power profile that tolerates even deep
// caps — a different class from every VASP workload, strengthening
// the case for per-application profiles.
type ExtEResult struct {
	Spec     workloads.MILCSpec
	Nodes    int
	Points   []ExtEPoint
	NodeFWHM float64
}

// RunExtE profiles MILC under the cap sweep.
func RunExtE(cfg Config) (ExtEResult, error) {
	spec := workloads.DefaultMILC()
	if cfg.Quick {
		spec.Trajectories = 2
		spec.MDSteps = 10
	}
	res := ExtEResult{Spec: spec, Nodes: 1}
	caps := StudyCapsFor(cfg.platform())
	// Every cap point is the same MILC run at the same seed: one
	// lookup each, the points that compute sharing one sweep. A cap at
	// or above the TDP is the default limit, and runs uncapped.
	profiles, err := cfg.env().MeasureMILCGroup(milcRun(cfg, spec, res.Nodes, cfg.repeats()), caps)
	if err != nil {
		return res, err
	}
	var baseRuntime float64
	for i, cap := range caps {
		jp := profiles[i]
		pt := ExtEPoint{CapW: cap, Runtime: jp.Runtime, GPUMode: jp.GPUHighMode(), NodeMode: highMode(jp)}
		if i == 0 {
			baseRuntime = jp.Runtime
			if m, ok := jp.NodeTotal.HighMode(); ok {
				res.NodeFWHM = m.FWHM
			}
		}
		if jp.Runtime > 0 {
			pt.RelPerf = baseRuntime / jp.Runtime
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// milcRun is the MILC run of spec on cfg's platform at cfg's seed.
func milcRun(cfg Config, spec workloads.MILCSpec, nodes, repeats int) workloads.MILCRunSpec {
	return workloads.MILCRunSpec{Spec: spec, Platform: cfg.platform(), Nodes: nodes, Repeats: repeats, Seed: cfg.seed()}
}

// Render draws the MILC study.
func (r ExtEResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension E — beyond VASP: MILC (%s, %d³×%d lattice, %d node)\n\n",
		r.Spec.Name, r.Spec.Lattice[0], r.Spec.Lattice[3], r.Nodes)
	t := report.NewTable("cap", "runtime", "rel. perf", "GPU mode", "node mode")
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprintf("%.0f W", p.CapW),
			report.Seconds(p.Runtime),
			fmt.Sprintf("%.2f", p.RelPerf),
			fmt.Sprintf("%.0f W", p.GPUMode),
			fmt.Sprintf("%.0f W", p.NodeMode),
		)
	}
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "\nnode-mode FWHM %.0f W — a flat, bandwidth-bound signature unlike any VASP\nworkload; caps down to 200 W are essentially free ([35]'s finding)\n", r.NodeFWHM)
	return sb.String()
}

// CSV exports the MILC cap study.
func (r ExtEResult) CSV() artifact.Table {
	t := artifact.Table{
		Name:   "exte_milc",
		Header: []string{"cap_w", "runtime_s", "rel_perf", "gpu_mode_w", "node_mode_w"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			artifact.F(p.CapW), artifact.F(p.Runtime), artifact.F(p.RelPerf),
			artifact.F(p.GPUMode), artifact.F(p.NodeMode),
		})
	}
	return t
}

// ExtFJob is one fleet job's power signature.
type ExtFJob struct {
	Name      string
	TrueClass string
	Cluster   int
	Features  []float64
}

// ExtFResult is the §VI-B "top-down" study: instead of a dedicated
// deep-dive per application, jobs are clustered by telemetry-derived
// power signatures alone (no knowledge of their inputs). High purity
// against the true workload classes shows a scheduler could assign
// cap policies statistically for the long tail of applications.
type ExtFResult struct {
	Jobs     []ExtFJob
	K        int
	Purity   float64
	Features []string
}

// signatureFeatures derives the clustering features from a profile:
// everything is telemetry-only (shares, mode position, robust
// spread). Robust statistics (IQR, mode−median) rather than range
// keep brief setup/teardown transients from masking a job's steady
// signature.
func signatureFeatures(jp core.JobProfile) []float64 {
	mode := highMode(jp)
	if mode <= 0 {
		mode = jp.NodeTotal.Summary.Mean
	}
	s := jp.NodeTotal.Summary
	iqr, skew := 0.0, 0.0
	if mode > 0 {
		iqr = (s.Q3 - s.Q1) / mode
		skew = (mode - s.Median) / mode
	}
	return []float64{
		mode / 2350.0, // mode as fraction of node TDP
		jp.GPUShareOfNode(),
		jp.CPUMemShareOfNode(),
		iqr,  // flat (MILC, DFT) vs oscillating (HSE exchange cycles)
		skew, // multi-phase jobs (RPA's CPU valley) sit far below their mode
	}
}

// RunExtF builds the fleet, clusters the signatures, and scores them.
func RunExtF(cfg Config) (ExtFResult, error) {
	res := ExtFResult{
		K:        4,
		Features: []string{"mode/TDP", "gpu-share", "cpumem-share", "iqr/mode", "(mode-median)/mode"},
	}
	if !cfg.Quick {
		// The full fleet is larger and the DFT class spans a wide
		// power range (the paper's own Fig. 5 point); one extra
		// cluster absorbs that spread.
		res.K = 5
	}
	// VASP fleet: every Table I benchmark (its true class from the
	// INCAR), at one node.
	benches := workloads.TableI()
	if cfg.Quick {
		benches = benches[:0]
		for _, name := range []string{"B.hR105_hse", "GaAsBi-64", "PdO2", "Si128_acfdtr"} {
			b, _ := workloads.ByName(name)
			benches = append(benches, b)
		}
	}
	// Flatten the fleet — Table I jobs, silicon synthetics, MILC — into
	// one index-addressed task list and fan the profiling out.
	spec := workloads.DefaultMILC()
	if cfg.Quick {
		spec.Trajectories = 2
		spec.MDSteps = 10
	}
	var tasks []func() (ExtFJob, error)
	for _, b := range benches {
		b := b
		tasks = append(tasks, func() (ExtFJob, error) {
			jp, err := measure(cfg, b, 1, cfg.repeats(), 0)
			if err != nil {
				return ExtFJob{}, err
			}
			return ExtFJob{
				Name:      b.Name,
				TrueClass: sched.Classify(b.Method).String(),
				Features:  signatureFeatures(jp),
			}, nil
		})
	}
	// Silicon synthetics widen each class's membership.
	for _, atoms := range []int{128, 512} {
		for _, kind := range kindsForExtF(cfg) {
			atoms, kind := atoms, kind
			tasks = append(tasks, func() (ExtFJob, error) {
				b, err := workloads.SiliconBenchmark(atoms, kind)
				if err != nil {
					return ExtFJob{}, err
				}
				jp, err := measure(cfg, b, 1, 1, 0)
				if err != nil {
					return ExtFJob{}, err
				}
				return ExtFJob{
					Name:      "syn:" + b.Name,
					TrueClass: sched.Classify(kind).String(),
					Features:  signatureFeatures(jp),
				}, nil
			})
		}
	}
	// MILC: a fourth class the scheduler has never profiled.
	for _, nodes := range []int{1, 2} {
		nodes := nodes
		tasks = append(tasks, func() (ExtFJob, error) {
			jps, err := cfg.env().MeasureMILCGroup(milcRun(cfg, spec, nodes, 1), []float64{0})
			if err != nil {
				return ExtFJob{}, err
			}
			jp := jps[0]
			return ExtFJob{
				Name:      fmt.Sprintf("%s@%d", spec.Name, nodes),
				TrueClass: "milc",
				Features:  signatureFeatures(jp),
			}, nil
		})
	}
	jobs := make([]ExtFJob, len(tasks))
	if err := par.ForEach(context.Background(), cfg.workers(), len(tasks),
		func(_ context.Context, i int) error {
			j, err := tasks[i]()
			if err != nil {
				return err
			}
			jobs[i] = j
			return nil
		}); err != nil {
		return res, err
	}
	res.Jobs = jobs

	points := make([][]float64, len(res.Jobs))
	labels := make([]string, len(res.Jobs))
	for i, j := range res.Jobs {
		points[i] = j.Features
		labels[i] = j.TrueClass
	}
	km, err := stats.KMeansFit(stats.Standardize(points), res.K, cfg.seed(), 200)
	if err != nil {
		return res, err
	}
	for i := range res.Jobs {
		res.Jobs[i].Cluster = km.Assignments[i]
	}
	res.Purity, err = stats.ClusterPurity(km.Assignments, labels)
	return res, err
}

func kindsForExtF(cfg Config) []method.Kind {
	if cfg.Quick {
		return []method.Kind{method.DFTRMM, method.HSE}
	}
	return []method.Kind{method.DFTRMM, method.DFTBD, method.HSE, method.ACFDTR}
}

// Render draws the clustering.
func (r ExtFResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension F — §VI-B top-down workload classification from power signatures\n")
	fmt.Fprintf(&sb, "(k-means, k=%d, features: %s)\n\n", r.K, strings.Join(r.Features, ", "))
	jobs := append([]ExtFJob(nil), r.Jobs...)
	sort.Slice(jobs, func(i, k int) bool {
		if jobs[i].Cluster != jobs[k].Cluster {
			return jobs[i].Cluster < jobs[k].Cluster
		}
		return jobs[i].Name < jobs[k].Name
	})
	t := report.NewTable("cluster", "job", "true class", "mode/TDP", "gpu-share")
	for _, j := range jobs {
		t.AddRow(
			fmt.Sprintf("%d", j.Cluster),
			j.Name,
			j.TrueClass,
			fmt.Sprintf("%.2f", j.Features[0]),
			fmt.Sprintf("%.2f", j.Features[1]),
		)
	}
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "\ncluster purity vs true classes: %.0f%%\n", r.Purity*100)
	sb.WriteString("(telemetry-only signatures largely recover the workload classes; residual\nmixing reflects genuine overlap — a heavy DFT job draws hybrid-like power,\nwhich is exactly why the paper argues for profile- rather than name-based\npolicies. This is the statistical route for the long tail of applications.)\n")
	return sb.String()
}

// CSV exports the clustering.
func (r ExtFResult) CSV() artifact.Table {
	t := artifact.Table{
		Name:   "extf_signature_clusters",
		Header: []string{"job", "true_class", "cluster", "mode_over_tdp", "gpu_share", "cpumem_share", "range_over_mode", "fwhm_over_mode"},
	}
	for _, j := range r.Jobs {
		row := []string{j.Name, j.TrueClass, artifact.I(j.Cluster)}
		for _, f := range j.Features {
			row = append(row, artifact.F(f))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
