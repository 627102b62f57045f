package experiments

import (
	"reflect"
	"strings"
	"testing"

	"vasppower/internal/core"
	"vasppower/internal/sched"
	"vasppower/internal/workloads"
)

func quickCfg() Config { return Config{Seed: 42, Quick: true, Repeats: 1} }

func TestTableI(t *testing.T) {
	res, err := RunTableI(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(res.Rows))
	}
	// Spot-check published values.
	for _, row := range res.Rows {
		switch row.Name {
		case "Si256_hse":
			if row.Electrons != 1020 || row.Ions != 255 || row.NBands != 640 ||
				row.NPLWV != 512000 || row.NELM != 41 {
				t.Fatalf("Si256_hse row wrong: %+v", row)
			}
		case "PdO4":
			if row.Electrons != 3288 || row.NBands != 2048 || row.NPLWV != 518400 {
				t.Fatalf("PdO4 row wrong: %+v", row)
			}
		case "Si128_acfdtr":
			if row.NBandsExact != 23506 || row.NPLWV != 216000 {
				t.Fatalf("Si128_acfdtr row wrong: %+v", row)
			}
		}
	}
	out := res.Render()
	if !strings.Contains(out, "Si256_hse") || !strings.Contains(out, "80x80x80") {
		t.Fatal("render missing content")
	}
}

func TestFig1NodeVariability(t *testing.T) {
	res, err := RunFig1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerNode) != res.Nodes {
		t.Fatalf("per-node series = %d", len(res.PerNode))
	}
	// Identical DGEMM work still shows node-to-node power spread
	// (manufacturing variability, §III-B.2).
	if res.Spread["dgemm"] <= 0 {
		t.Fatal("no node-to-node variability in DGEMM phase")
	}
	// Idle is the lowest phase; DGEMM the highest.
	for node, means := range res.PhaseMeans {
		if means["idle"] >= means["dgemm"] {
			t.Fatalf("node %s: idle %.0f not below dgemm %.0f", node, means["idle"], means["dgemm"])
		}
		if means["idle"] < 390 || means["idle"] > 530 {
			t.Fatalf("node %s idle %.0f outside published 410-510 W band", node, means["idle"])
		}
	}
	if !strings.Contains(res.Render(), "dgemm") {
		t.Fatal("render missing phases")
	}
}

func TestFig2SamplingStudy(t *testing.T) {
	res, err := RunFig2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(Fig2Intervals()) {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Paper finding: the high power mode is stable at every interval.
	if !res.HighModeStable(25) {
		t.Fatalf("high power mode not stable across intervals: %+v", res.Points)
	}
	// Max power can only decrease (averaging) as intervals coarsen.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Max > res.Points[0].Max+1e-6 {
			t.Fatal("max power increased under averaging")
		}
	}
	if !strings.Contains(res.Render(), "high mode") {
		t.Fatal("render missing content")
	}
}

func TestFig3Profiles(t *testing.T) {
	res, err := RunFig3(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) == 0 {
		t.Fatal("no entries")
	}
	for _, e := range res.Entries {
		if e.HighMode <= 0 || e.Max < e.HighMode || e.Min > e.Median {
			t.Fatalf("%s: inconsistent stats %+v", e.Bench, e)
		}
		if e.Bench == "Si128_acfdtr" {
			// Multi-modal (GPU bursts vs CPU-only valley).
			if !e.MultiModal {
				t.Fatal("ACFDTR profile should be multi-modal")
			}
		}
	}
	if !strings.Contains(res.Render(), "histogram") {
		t.Fatal("render missing content")
	}
}

func TestScalingFigs4And5(t *testing.T) {
	res, err := RunScaling(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for name, pts := range res.Series {
		if len(pts) == 0 {
			t.Fatalf("%s: empty series", name)
		}
		// Parallel efficiency decreases with node count.
		for i := 1; i < len(pts); i++ {
			if pts[i].ParEff > pts[i-1].ParEff+1e-9 {
				t.Fatalf("%s: PE increased with nodes", name)
			}
		}
		// 1-node PE is 100% by construction.
		if pts[0].ParEff < 0.999 {
			t.Fatalf("%s: base PE %v", name, pts[0].ParEff)
		}
	}
	lo, hi := res.ModeRange()
	if hi-lo < 200 {
		t.Fatalf("workload power range too narrow: %.0f–%.0f W", lo, hi)
	}
	if !strings.Contains(res.Fig4Render(), "%") || !strings.Contains(res.Fig5Render(), "W") {
		t.Fatal("renders missing content")
	}
}

func TestFig6SizeSweep(t *testing.T) {
	res, err := RunFig6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 3 {
		t.Fatal("too few points")
	}
	// Power rises with system size.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].GPUSumMode <= res.Points[i-1].GPUSumMode {
			t.Fatalf("4-GPU mode not increasing: %+v", res.Points)
		}
	}
	// And stays below the node TDP.
	for _, p := range res.Points {
		if p.NodeMode >= res.NodeTDP {
			t.Fatalf("node mode %v exceeds TDP", p.NodeMode)
		}
	}
	if !strings.Contains(res.Render(), "atoms") {
		t.Fatal("render missing content")
	}
}

func TestFig7ParameterSweeps(t *testing.T) {
	res, err := RunFig7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// NPLWV sweep: power rises with plane waves.
	first, last := res.NPLWVSweep[0], res.NPLWVSweep[len(res.NPLWVSweep)-1]
	if last.NodeMode <= first.NodeMode {
		t.Fatalf("power did not rise with NPLWV: %.0f -> %.0f", first.NodeMode, last.NodeMode)
	}
	// NBANDS sweep: power stays flat (<6% variation) while energy and
	// runtime grow.
	nb := res.NBandsSweep
	if len(nb) < 2 {
		t.Fatal("bands sweep too short")
	}
	for _, p := range nb[1:] {
		rel := p.NodeMode/nb[0].NodeMode - 1
		if rel > 0.06 || rel < -0.06 {
			t.Fatalf("power moved %.1f%% with NBANDS", rel*100)
		}
	}
	if nb[len(nb)-1].EnergyMJ <= nb[0].EnergyMJ {
		t.Fatal("energy did not grow with NBANDS")
	}
	if nb[len(nb)-1].Runtime <= nb[0].Runtime {
		t.Fatal("runtime did not grow with NBANDS")
	}
	if !strings.Contains(res.Render(), "NBANDS") {
		t.Fatal("render missing content")
	}
}

func TestFig8ConcurrencySweep(t *testing.T) {
	res, err := RunFig8(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !res.EnergyMonotone() {
		t.Fatalf("energy to solution not monotone: %+v", res.Points)
	}
	// Power holds within 10% while PE ≥ 70%.
	base := res.Points[0].NodeMode
	for _, p := range res.Points {
		if p.ParEff >= 0.70 {
			rel := p.NodeMode/base - 1
			if rel < -0.10 || rel > 0.10 {
				t.Fatalf("node mode moved %.1f%% at PE %.0f%%", rel*100, p.ParEff*100)
			}
		}
	}
	if !strings.Contains(res.Render(), "energy") {
		t.Fatal("render missing content")
	}
}

func TestFig9MethodViolins(t *testing.T) {
	res, err := RunFig9(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// HSE ≫ plain DFT on the same structure.
	var hse, dft float64
	for _, e := range res.Entries {
		if e.Atoms != 128 {
			continue
		}
		switch e.Method {
		case "hse":
			hse = e.HighMode
		case "dft_rmm":
			dft = e.HighMode
		}
	}
	if hse == 0 || dft == 0 {
		t.Fatalf("missing modes: hse=%v dft=%v", hse, dft)
	}
	if hse-dft < 300 {
		t.Fatalf("HSE-DFT gap only %.0f W; paper reports >600 W on average", hse-dft)
	}
	if !strings.Contains(res.Render(), "hse") {
		t.Fatal("render missing content")
	}
}

func TestCapStudyFigs10And12(t *testing.T) {
	res, err := RunCapStudy(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for name, cr := range res.Responses {
		for _, p := range cr.Points {
			// Caps respected except at 100 W (overshoot allowed).
			if p.CapW > 150 && p.ModeOverCap > 1.01 {
				t.Fatalf("%s: cap %v overshot (%.2f)", name, p.CapW, p.ModeOverCap)
			}
			if p.RelPerf > 1.001 {
				t.Fatalf("%s: capped run faster than baseline", name)
			}
		}
	}
	// GaAsBi-64 is insensitive even at 100 W (<5%).
	if slow, err := res.SlowdownAt("GaAsBi-64", 100); err != nil || slow > 0.05 {
		t.Fatalf("GaAsBi-64 at 100 W: %.1f%% (%v)", slow*100, err)
	}
	// The hybrid benchmark barely moves at 300 W.
	if slow, err := res.SlowdownAt("B.hR105_hse", 300); err != nil || slow > 0.05 {
		t.Fatalf("B.hR105_hse at 300 W: %.1f%% (%v)", slow*100, err)
	}
	if !strings.Contains(res.Fig10Render(), "fraction") ||
		!strings.Contains(res.Fig12Render(), "1.00") {
		t.Fatal("renders missing content")
	}
}

// TestCapStudyMatchesMeasureCapResponse: the -quick cap study's
// response for each benchmark, measured through the Env's cached
// MeasureGroup, deep-equals the uncached core.MeasureCapResponse at the
// same spec and caps; both are built by core.AssembleCapResponse.
func TestCapStudyMatchesMeasureCapResponse(t *testing.T) {
	cfg := quickCfg()
	res, err := RunCapStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"B.hR105_hse", "GaAsBi-64"} {
		b, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		got, ok := res.Responses[name]
		if !ok {
			t.Fatalf("%s: no cap response", name)
		}
		want, err := core.MeasureCapResponse(cfg.spec(b, 1, cfg.repeats()), res.Caps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cap study response differs from MeasureCapResponse\n got %+v\nwant %+v", name, got, want)
		}
	}
}

func TestFig11CapTimeline(t *testing.T) {
	res, err := RunFig11(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Peaks clipped substantially; troughs (CPU phase) ~unchanged.
	if res.PeakReduction < 0.2 {
		t.Fatalf("peak reduction only %.0f%%", res.PeakReduction*100)
	}
	if res.TroughChange > 50 || res.TroughChange < -50 {
		t.Fatalf("trough moved %.0f W; should be untouched", res.TroughChange)
	}
	if res.RuntimeStretch <= 0 {
		t.Fatal("capping should stretch the runtime")
	}
	if !strings.Contains(res.Render(), "capped") {
		t.Fatal("render missing content")
	}
}

func TestFig13ConcurrencyIndependence(t *testing.T) {
	res, err := RunFig13(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The cap response is similar at every node count.
	for _, cap := range res.Caps {
		if spread := res.MaxSpreadAt(cap); spread > 0.15 {
			t.Fatalf("cap %v W: response spread %.2f across node counts", cap, spread)
		}
	}
	if !strings.Contains(res.Render(), "nodes") {
		t.Fatal("render missing content")
	}
}

// TestExtSchedulerRenderWithoutCompletions: a policy that completed
// no job has an empty power timeline, which Render reports in a line
// of its own rather than sampling.
func TestExtSchedulerRenderWithoutCompletions(t *testing.T) {
	r := ExtSchedulerResult{ClusterNodes: 8, BudgetW: 8800, Jobs: 8, Results: []sched.Result{{Policy: "nocap"}}}
	if out := r.Render(); !strings.Contains(out, "nocap          no completed jobs\n") {
		t.Fatalf("render lacks the no-completions line:\n%s", out)
	}
}

func TestExtScheduler(t *testing.T) {
	res, err := RunExtScheduler(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 {
		t.Fatalf("policies = %d", len(res.Results))
	}
	byName := map[string]int{}
	for i, r := range res.Results {
		byName[r.Policy] = i
		if r.Completed != res.Jobs {
			t.Fatalf("%s completed %d of %d", r.Policy, r.Completed, res.Jobs)
		}
		if r.PeakPowerW > res.BudgetW+1e-6 {
			t.Fatalf("%s violated the budget", r.Policy)
		}
	}
	aware := res.Results[byName["profile-aware"]]
	nocap := res.Results[byName["nocap"]]
	if aware.MeanWait > nocap.MeanWait {
		t.Fatalf("profile-aware wait %v worse than nocap %v", aware.MeanWait, nocap.MeanWait)
	}
	if aware.MeanPerfLoss > 0.10 {
		t.Fatalf("profile-aware mean loss %.1f%%", aware.MeanPerfLoss*100)
	}
	if !strings.Contains(res.Render(), "profile-aware") {
		t.Fatal("render missing content")
	}
}

func TestExtRepeats(t *testing.T) {
	res, err := RunExtRepeats(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runtimes) < 3 {
		t.Fatal("too few repeats")
	}
	if res.BestRuntime > res.MeanRuntime {
		t.Fatal("best runtime exceeds mean")
	}
	// Runtime varies; the power mode is stable across repeats.
	if res.ModeSpreadW > 40 {
		t.Fatalf("mode spread %.0f W too large", res.ModeSpreadW)
	}
	if !strings.Contains(res.Render(), "repeat") {
		t.Fatal("render missing content")
	}
}

func TestExtCCappingBeatsDVFS(t *testing.T) {
	res, err := RunExtC(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		// Both mechanisms honor the target (within sampling noise).
		if row.CapMaxGPUW > res.TargetW*1.02 {
			t.Fatalf("%s: cap missed target (%.0f W)", row.Bench, row.CapMaxGPUW)
		}
		if row.DVFSMaxGPUW > res.TargetW*1.02 {
			t.Fatalf("%s: DVFS missed target (%.0f W)", row.Bench, row.DVFSMaxGPUW)
		}
		// Capping loses no more performance than DVFS at equal targets.
		if row.CapRuntime > row.DVFSRuntime*1.001 {
			t.Fatalf("%s: capping (%.1f s) slower than DVFS (%.1f s)",
				row.Bench, row.CapRuntime, row.DVFSRuntime)
		}
	}
	if !res.CappingWins() {
		t.Fatal("CappingWins should hold")
	}
	if !strings.Contains(res.Render(), "DVFS") {
		t.Fatal("render missing content")
	}
}

func TestExtDPredictor(t *testing.T) {
	res, err := RunExtD(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainSamples < 10 {
		t.Fatalf("only %d training samples", res.TrainSamples)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no held-out predictions")
	}
	// Predictions should be useful for scheduling: within ~25% on
	// held-out production benchmarks.
	if res.MAPE > 0.25 {
		t.Fatalf("MAPE %.1f%% too large", res.MAPE*100)
	}
	if !strings.Contains(res.Render(), "MAPE") {
		t.Fatal("render missing content")
	}
}

func TestExtEMILC(t *testing.T) {
	res, err := RunExtE(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// MILC tolerates 200 W nearly for free.
	for _, p := range res.Points {
		if p.CapW >= 200 && p.RelPerf < 0.95 {
			t.Fatalf("MILC lost %.0f%% at %v W", (1-p.RelPerf)*100, p.CapW)
		}
	}
	// Its GPU mode sits in the bandwidth-bound band, far from both
	// idle and TDP.
	if m := res.Points[0].GPUMode; m < 180 || m > 320 {
		t.Fatalf("MILC GPU mode %v W", m)
	}
	if !strings.Contains(res.Render(), "MILC") {
		t.Fatal("render missing content")
	}
	if err := res.CSV().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExtFSignatureClustering(t *testing.T) {
	res, err := RunExtF(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) < 8 {
		t.Fatalf("fleet too small: %d jobs", len(res.Jobs))
	}
	// Telemetry-only signatures should largely recover the classes.
	if res.Purity < 0.75 {
		t.Fatalf("cluster purity %.0f%% too low", res.Purity*100)
	}
	// MILC jobs land in the same cluster as each other.
	var milcClusters []int
	for _, j := range res.Jobs {
		if j.TrueClass == "milc" {
			milcClusters = append(milcClusters, j.Cluster)
		}
	}
	if len(milcClusters) < 2 {
		t.Fatal("missing MILC jobs")
	}
	for _, c := range milcClusters[1:] {
		if c != milcClusters[0] {
			t.Fatalf("MILC jobs split across clusters: %v", milcClusters)
		}
	}
	if !strings.Contains(res.Render(), "purity") {
		t.Fatal("render missing content")
	}
	if err := res.CSV().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExtGMetricAblation(t *testing.T) {
	res, err := RunExtG(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	// On the multi-modal ACFDTR profile: reserving by the mean leaves
	// the job over budget for a large share of its runtime; reserving
	// by the high power mode does not.
	meanCell, ok1 := res.Cell("Si128_acfdtr", "mean")
	modeCell, ok2 := res.Cell("Si128_acfdtr", "high-mode")
	maxCell, ok3 := res.Cell("Si128_acfdtr", "max")
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("missing cells")
	}
	if meanCell.Violation < 0.2 {
		t.Fatalf("mean reservation should be violated often: %v", meanCell.Violation)
	}
	if modeCell.Violation > 0.15 {
		t.Fatalf("mode reservation violated too often: %v", modeCell.Violation)
	}
	// Max never violates but wastes more headroom than the mode.
	if maxCell.Violation != 0 {
		t.Fatalf("max reservation violated: %v", maxCell.Violation)
	}
	if maxCell.HeadroomW <= modeCell.HeadroomW {
		t.Fatalf("max headroom %v should exceed mode headroom %v",
			maxCell.HeadroomW, modeCell.HeadroomW)
	}
	if !strings.Contains(res.Render(), "headroom") {
		t.Fatal("render missing content")
	}
	if err := res.CSV().Validate(); err != nil {
		t.Fatal(err)
	}
}
