package predict

import (
	"fmt"
	"math"

	"vasppower/internal/sched"
	"vasppower/internal/workloads"
)

// Features extracts the scheduler-visible predictors of one job:
// everything comes from the INCAR/KPOINTS and the requested node
// count — no measurement of the job itself is needed, which is the
// §VI-A requirement ("without costly computation").
func Features(b workloads.Benchmark, nodes int) ([]float64, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("predict: node count %d", nodes)
	}
	ranks := 4 * nodes
	kpar := b.KPar
	if ranks%kpar != 0 {
		kpar = 1
	}
	bandsPerGPU := float64(b.NBands) * float64(kpar) / float64(ranks)
	if bandsPerGPU < 1 {
		bandsPerGPU = 1
	}
	return []float64{
		1,
		math.Log(float64(b.NPLWV())),
		math.Log(bandsPerGPU),
		math.Log(float64(b.Structure.Electrons)),
		math.Log(float64(nodes)),
		math.Log(float64(b.KPoints.Reduced())),
	}, nil
}

// featureDim is the length of the Features vector.
const featureDim = 6

// Model predicts node-level high power mode (watts) from job
// features, one ridge regression per workload class.
type Model struct {
	coef map[sched.Class][]float64
}

// Sample is one training observation.
type Sample struct {
	Bench    workloads.Benchmark
	Nodes    int
	NodeMode float64 // measured high power mode per node, W
}

// Fit trains the per-class models. Each class needs at least
// featureDim+1 samples.
func Fit(samples []Sample, lambda float64) (*Model, error) {
	byClass := map[sched.Class][]Sample{}
	for _, s := range samples {
		if s.NodeMode <= 0 {
			return nil, fmt.Errorf("predict: sample %s has mode %v", s.Bench.Name, s.NodeMode)
		}
		c := sched.Classify(s.Bench.Method)
		byClass[c] = append(byClass[c], s)
	}
	m := &Model{coef: map[sched.Class][]float64{}}
	for class, ss := range byClass {
		if len(ss) < featureDim+1 {
			return nil, fmt.Errorf("predict: class %v has only %d samples (need ≥ %d)",
				class, len(ss), featureDim+1)
		}
		X := make([][]float64, len(ss))
		y := make([]float64, len(ss))
		for i, s := range ss {
			f, err := Features(s.Bench, s.Nodes)
			if err != nil {
				return nil, err
			}
			X[i] = f
			// Fit in log space: power spans 700–1900 W and effects are
			// multiplicative (saturation curves).
			y[i] = math.Log(s.NodeMode)
		}
		beta, err := solveRidge(X, y, lambda)
		if err != nil {
			return nil, fmt.Errorf("predict: class %v: %w", class, err)
		}
		m.coef[class] = beta
	}
	return m, nil
}

// Predict estimates the node high power mode (W) for a job.
func (m *Model) Predict(b workloads.Benchmark, nodes int) (float64, error) {
	class := sched.Classify(b.Method)
	beta, ok := m.coef[class]
	if !ok {
		return 0, fmt.Errorf("predict: no model for class %v", class)
	}
	f, err := Features(b, nodes)
	if err != nil {
		return 0, err
	}
	return math.Exp(dot(beta, f)), nil
}

// Evaluation summarizes prediction error over a test set.
type Evaluation struct {
	N    int
	MAPE float64 // mean absolute percentage error
	Max  float64 // worst absolute percentage error
}

// Evaluate scores the model against measured samples.
func (m *Model) Evaluate(test []Sample) (Evaluation, error) {
	var ev Evaluation
	for _, s := range test {
		pred, err := m.Predict(s.Bench, s.Nodes)
		if err != nil {
			return ev, err
		}
		ape := math.Abs(pred-s.NodeMode) / s.NodeMode
		ev.MAPE += ape
		if ape > ev.Max {
			ev.Max = ape
		}
		ev.N++
	}
	if ev.N > 0 {
		ev.MAPE /= float64(ev.N)
	}
	return ev, nil
}
