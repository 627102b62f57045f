package experiments

import (
	"fmt"
	"sort"

	"vasppower/internal/artifact"
	"vasppower/internal/workloads"
)

// CSV exports of the figure datasets (the paper's artifact bundle).

// CSV returns Table I as a dataset.
func (r TableIResult) CSV() artifact.Table {
	t := artifact.Table{
		Name: "table1_benchmarks",
		Header: []string{"benchmark", "electrons", "ions", "functional", "algo",
			"nelm", "nbands", "nbands_exact", "fft_x", "fft_y", "fft_z", "nplwv",
			"kx", "ky", "kz", "kpar"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Name, artifact.I(row.Electrons), artifact.I(row.Ions),
			row.Functional, row.Algo, artifact.I(row.NELM), artifact.I(row.NBands),
			artifact.I(row.NBandsExact),
			artifact.I(row.FFTGrid[0]), artifact.I(row.FFTGrid[1]), artifact.I(row.FFTGrid[2]),
			artifact.I(row.NPLWV),
			artifact.I(row.KPoints[0]), artifact.I(row.KPoints[1]), artifact.I(row.KPoints[2]),
			artifact.I(row.KPar),
		})
	}
	return t
}

// CSV returns the per-node phase means of Fig. 1.
func (r Fig1Result) CSV() artifact.Table {
	t := artifact.Table{
		Name:   "fig1_node_phase_means",
		Header: []string{"node", "phase", "mean_watts"},
	}
	var nodes []string
	for n := range r.PhaseMeans {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		for _, phase := range Fig1Phases() {
			t.Rows = append(t.Rows, []string{n, phase, artifact.F(r.PhaseMeans[n][phase])})
		}
	}
	return t
}

// CSV returns the sampling-rate summary of Fig. 2.
func (r Fig2Result) CSV() artifact.Table {
	t := artifact.Table{
		Name:   "fig2_sampling_rates",
		Header: []string{"interval_s", "samples", "min_w", "median_w", "max_w", "high_mode_w", "fwhm_w", "modes"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			artifact.F(p.IntervalS), artifact.I(p.Samples),
			artifact.F(p.Min), artifact.F(p.Median), artifact.F(p.Max),
			artifact.F(p.HighMode), artifact.F(p.FWHM), artifact.I(p.NumModes),
		})
	}
	return t
}

// CSV returns the Fig. 3 component summary.
func (r Fig3Result) CSV() artifact.Table {
	t := artifact.Table{
		Name: "fig3_profiles",
		Header: []string{"benchmark", "runtime_s", "energy_mj", "node_min_w", "node_median_w",
			"node_max_w", "node_high_mode_w", "gpu_share", "cpumem_share", "multimodal"},
	}
	for _, e := range r.Entries {
		t.Rows = append(t.Rows, []string{
			e.Bench, artifact.F(e.Profile.Runtime), artifact.F(e.Profile.EnergyJ / 1e6),
			artifact.F(e.Min), artifact.F(e.Median), artifact.F(e.Max), artifact.F(e.HighMode),
			artifact.F(e.Profile.GPUShareOfNode()), artifact.F(e.Profile.CPUMemShareOfNode()),
			fmt.Sprintf("%v", e.MultiModal),
		})
	}
	return t
}

// CSV returns the scaling dataset behind Figs. 4 and 5.
func (r ScalingResult) CSV() artifact.Table {
	t := artifact.Table{
		Name:   "fig4_fig5_scaling",
		Header: []string{"benchmark", "nodes", "runtime_s", "parallel_efficiency", "node_high_mode_w", "energy_j"},
	}
	for _, name := range workloads.Names() {
		for _, p := range r.Series[name] {
			t.Rows = append(t.Rows, []string{
				name, artifact.I(p.Nodes), artifact.F(p.Runtime),
				artifact.F(p.ParEff), artifact.F(p.NodeMode), artifact.F(p.EnergyJ),
			})
		}
	}
	return t
}

// CSV returns the size sweep of Fig. 6.
func (r Fig6Result) CSV() artifact.Table {
	t := artifact.Table{
		Name: "fig6_size_sweep",
		Header: []string{"atoms", "nplwv", "nbands", "node_mode_w", "node_fwhm_w",
			"gpusum_mode_w", "gpusum_fwhm_w", "runtime_s"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			artifact.I(p.Atoms), artifact.I(p.NPLWV), artifact.I(p.NBands),
			artifact.F(p.NodeMode), artifact.F(p.NodeFWHM),
			artifact.F(p.GPUSumMode), artifact.F(p.GPUSumFWHM), artifact.F(p.Runtime),
		})
	}
	return t
}

// CSV returns both parameter sweeps of Fig. 7.
func (r Fig7Result) CSV() artifact.Table {
	t := artifact.Table{
		Name:   "fig7_parameter_sweeps",
		Header: []string{"sweep", "nplwv", "nbands", "node_mode_w", "node_mean_w", "energy_mj", "runtime_s"},
	}
	add := func(sweep string, pts []Fig7Point) {
		for _, p := range pts {
			t.Rows = append(t.Rows, []string{
				sweep, artifact.I(p.NPLWV), artifact.I(p.NBands),
				artifact.F(p.NodeMode), artifact.F(p.NodeMean),
				artifact.F(p.EnergyMJ), artifact.F(p.Runtime),
			})
		}
	}
	add("nplwv", r.NPLWVSweep)
	add("nbands", r.NBandsSweep)
	return t
}

// CSV returns the concurrency sweep of Fig. 8.
func (r Fig8Result) CSV() artifact.Table {
	t := artifact.Table{
		Name:   "fig8_concurrency",
		Header: []string{"nodes", "parallel_efficiency", "node_mode_w", "node_mean_w", "energy_mj", "runtime_s"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			artifact.I(p.Nodes), artifact.F(p.ParEff), artifact.F(p.NodeMode),
			artifact.F(p.NodeMean), artifact.F(p.EnergyMJ), artifact.F(p.Runtime),
		})
	}
	return t
}

// CSV returns the method-violin summary of Fig. 9.
func (r Fig9Result) CSV() artifact.Table {
	t := artifact.Table{
		Name:   "fig9_methods",
		Header: []string{"method", "atoms", "high_mode_w", "median_w", "q1_w", "q3_w", "multimodal"},
	}
	for _, e := range r.Entries {
		if e.Violin == nil {
			continue
		}
		s := e.Violin.Summary
		t.Rows = append(t.Rows, []string{
			e.Method, artifact.I(e.Atoms), artifact.F(e.HighMode),
			artifact.F(s.Median), artifact.F(s.Q1), artifact.F(s.Q3),
			fmt.Sprintf("%v", e.Violin.IsMultiModal()),
		})
	}
	return t
}

// CSV returns the cap study behind Figs. 10 and 12.
func (r CapStudyResult) CSV() artifact.Table {
	t := artifact.Table{
		Name:   "fig10_fig12_cap_study",
		Header: []string{"benchmark", "nodes", "cap_w", "runtime_s", "rel_perf", "gpu_mode_w", "mode_over_cap"},
	}
	for _, name := range workloads.Names() {
		cr := r.Responses[name]
		for _, p := range cr.Points {
			t.Rows = append(t.Rows, []string{
				name, artifact.I(cr.Nodes), artifact.F(p.CapW), artifact.F(p.Runtime),
				artifact.F(p.RelPerf), artifact.F(p.GPUHighMode), artifact.F(p.ModeOverCap),
			})
		}
	}
	return t
}

// CSV returns the capped-vs-uncapped summary of Fig. 11.
func (r Fig11Result) CSV() artifact.Table {
	return artifact.Table{
		Name:   "fig11_cap_timeline",
		Header: []string{"variant", "runtime_s", "node_max_w", "node_min_w"},
		Rows: [][]string{
			{"uncapped", artifact.F(r.Uncapped.Runtime),
				artifact.F(r.Uncapped.NodeTotal.Summary.Max), artifact.F(r.Uncapped.NodeTotal.Summary.Min)},
			{fmt.Sprintf("capped_%.0fW", r.CapW), artifact.F(r.Capped.Runtime),
				artifact.F(r.Capped.NodeTotal.Summary.Max), artifact.F(r.Capped.NodeTotal.Summary.Min)},
		},
	}
}

// CSV returns the cap × concurrency grid of Fig. 13.
func (r Fig13Result) CSV() artifact.Table {
	t := artifact.Table{
		Name:   "fig13_caps_by_nodes",
		Header: []string{"nodes", "cap_w", "rel_perf"},
	}
	for _, n := range r.Counts {
		rels := r.RelPerf[n]
		for i, cap := range r.Caps {
			if i < len(rels) {
				t.Rows = append(t.Rows, []string{artifact.I(n), artifact.F(cap), artifact.F(rels[i])})
			}
		}
	}
	return t
}

// CSV returns the scheduler ablation of Extension A.
func (r ExtSchedulerResult) CSV() artifact.Table {
	t := artifact.Table{
		Name: "exta_scheduler",
		Header: []string{"policy", "makespan_s", "mean_wait_s", "peak_power_w",
			"energy_j", "mean_perf_loss", "throughput_jobs_per_h"},
	}
	for _, res := range r.Results {
		t.Rows = append(t.Rows, []string{
			res.Policy, artifact.F(res.Makespan), artifact.F(res.MeanWait),
			artifact.F(res.PeakPowerW), artifact.F(res.TotalEnergyJ),
			artifact.F(res.MeanPerfLoss), artifact.F(res.Throughput),
		})
	}
	return t
}

// CSV returns the repeat-protocol data of Extension B.
func (r ExtRepeatsResult) CSV() artifact.Table {
	t := artifact.Table{
		Name:   "extb_repeats",
		Header: []string{"repeat", "runtime_s", "node_high_mode_w"},
	}
	for i, rt := range r.Runtimes {
		mode := ""
		if i < len(r.ModePerRun) {
			mode = artifact.F(r.ModePerRun[i])
		}
		t.Rows = append(t.Rows, []string{artifact.I(i + 1), artifact.F(rt), mode})
	}
	return t
}

// CSV returns the DVFS-vs-capping comparison of Extension C.
func (r ExtCResult) CSV() artifact.Table {
	t := artifact.Table{
		Name: "extc_dvfs_vs_capping",
		Header: []string{"benchmark", "mechanism", "setting", "runtime_s",
			"baseline_runtime_s", "max_gpu_w", "mean_gpu_w"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Bench, "powercap", artifact.F(r.TargetW), artifact.F(row.CapRuntime),
			artifact.F(row.BaseRuntime), artifact.F(row.CapMaxGPUW), artifact.F(row.CapMeanGPU),
		})
		t.Rows = append(t.Rows, []string{
			row.Bench, "dvfs", artifact.F(row.DVFSClockMHz), artifact.F(row.DVFSRuntime),
			artifact.F(row.BaseRuntime), artifact.F(row.DVFSMaxGPUW), artifact.F(row.DVFSMeanGPU),
		})
	}
	return t
}

// CSV returns the predictor evaluation of Extension D.
func (r ExtDResult) CSV() artifact.Table {
	t := artifact.Table{
		Name:   "extd_prediction",
		Header: []string{"benchmark", "nodes", "measured_mode_w", "predicted_mode_w", "error_pct"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Bench, artifact.I(row.Nodes), artifact.F(row.Measured),
			artifact.F(row.Predicted), artifact.F(row.ErrPct),
		})
	}
	return t
}
