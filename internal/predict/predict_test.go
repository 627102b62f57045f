package predict

import (
	"math"
	"testing"

	"vasppower/internal/rng"
	"vasppower/internal/workloads"
)

// uniform returns a uniform deviate in [lo, hi).
func uniform(r *rng.Stream, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

func TestSolveLinearKnownSystem(t *testing.T) {
	A := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := solveLinear(A, b)
	if err != nil {
		t.Fatal(err)
	}
	// Solution of 2x+y=5, x+3y=10 → x=1, y=3.
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	A := [][]float64{{1, 2}, {2, 4}}
	if _, err := solveLinear(A, []float64{1, 2}); err == nil {
		t.Fatal("singular system accepted")
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Zero on the diagonal: fails without partial pivoting.
	A := [][]float64{{0, 1}, {1, 0}}
	x, err := solveLinear(A, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-9 || math.Abs(x[1]-2) > 1e-9 {
		t.Fatalf("x = %v", x)
	}
}

func TestRidgeRecoversCoefficients(t *testing.T) {
	// y = 3 + 2·x1 − x2 with small noise; OLS (λ→0) recovers it.
	r := rng.New(1)
	var X [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		x1, x2 := uniform(r, -2, 2), uniform(r, -2, 2)
		X = append(X, []float64{1, x1, x2})
		y = append(y, 3+2*x1-x2+r.Normal(0, 0.01))
	}
	beta, err := solveRidge(X, y, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -1}
	for i := range want {
		if math.Abs(beta[i]-want[i]) > 0.02 {
			t.Fatalf("beta = %v, want ≈ %v", beta, want)
		}
	}
}

func TestRidgeShrinks(t *testing.T) {
	r := rng.New(2)
	var X [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		x := uniform(r, -1, 1)
		X = append(X, []float64{1, x})
		y = append(y, 5*x+r.Normal(0, 0.1))
	}
	small, _ := solveRidge(X, y, 1e-9)
	big, _ := solveRidge(X, y, 100)
	if math.Abs(big[1]) >= math.Abs(small[1]) {
		t.Fatalf("ridge did not shrink: %v vs %v", big[1], small[1])
	}
}

func TestSolveRidgeValidation(t *testing.T) {
	if _, err := solveRidge(nil, nil, 0); err == nil {
		t.Fatal("empty system accepted")
	}
	if _, err := solveRidge([][]float64{{1}}, []float64{1, 2}, 0); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := solveRidge([][]float64{{1, 2}, {1}}, []float64{1, 2}, 0); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	if _, err := solveRidge([][]float64{{1}}, []float64{1}, -1); err == nil {
		t.Fatal("negative lambda accepted")
	}
}

func TestFeatures(t *testing.T) {
	b, _ := workloads.ByName("Si256_hse")
	f, err := Features(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != featureDim || f[0] != 1 {
		t.Fatalf("features = %v", f)
	}
	// NPLWV feature is log(512000).
	if math.Abs(f[1]-math.Log(512000)) > 1e-9 {
		t.Fatalf("nplwv feature = %v", f[1])
	}
	// More nodes → fewer bands per GPU.
	f4, _ := Features(b, 4)
	if f4[2] >= f[2] {
		t.Fatal("bands-per-GPU feature did not shrink with nodes")
	}
	if _, err := Features(b, 0); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestFitValidation(t *testing.T) {
	b, _ := workloads.ByName("PdO2")
	if _, err := Fit([]Sample{{Bench: b, Nodes: 1, NodeMode: 0}}, 1e-3); err == nil {
		t.Fatal("zero-mode sample accepted")
	}
	// Too few samples for a class.
	if _, err := Fit([]Sample{{Bench: b, Nodes: 1, NodeMode: 900}}, 1e-3); err == nil {
		t.Fatal("under-determined class accepted")
	}
}

// TestFitPredictSynthetic checks the full pipeline against a
// synthetic power law: if modes follow exp(β·features) exactly, the
// model recovers them.
func TestFitPredictSynthetic(t *testing.T) {
	var samples []Sample
	for _, atoms := range []int{64, 128, 256, 512, 1024, 2048} {
		for _, nodes := range []int{1, 2} {
			b, err := workloads.SiliconBenchmark(atoms, workloads.TableI()[2].Method) // DFTRMM
			if err != nil {
				t.Fatal(err)
			}
			f, _ := Features(b, nodes)
			mode := math.Exp(5 + 0.1*f[1] + 0.05*f[2] + 0.02*f[3] - 0.03*f[4])
			samples = append(samples, Sample{Bench: b, Nodes: nodes, NodeMode: mode})
		}
	}
	m, err := Fit(samples, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := m.Evaluate(samples)
	if err != nil {
		t.Fatal(err)
	}
	if ev.MAPE > 1e-6 {
		t.Fatalf("exact synthetic fit should have ~zero error, MAPE %v", ev.MAPE)
	}
	// Unknown class rejected.
	hseBench, _ := workloads.ByName("Si256_hse")
	if _, err := m.Predict(hseBench, 1); err == nil {
		t.Fatal("prediction for untrained class accepted")
	}
}
