// Package sched implements the power-aware batch scheduling the paper
// proposes in §VI: a Slurm-like scheduler running 30-second cycles
// that classifies VASP jobs by workload type (readable from the INCAR
// without any costly computation), applies per-class GPU power caps,
// and packs jobs under a facility power budget.
//
// Three policies are provided for the ablation:
//
//   - NoCap: jobs run at default limits and are budgeted at node TDP
//     (what a site must assume without profiles);
//   - UniformCap: one cap for everything;
//   - ProfileAware: the paper's proposal — per-class caps chosen from
//     the measured profiles (50% TDP for everything, since the study
//     shows <10% loss there, with DFT-class jobs capped harder).
package sched

import (
	"fmt"
	"math"
	"sort"

	"vasppower/internal/dft/method"
	"vasppower/internal/workloads"
)

// Class is the workload type the scheduler can infer from job inputs.
type Class int

// Workload classes, ordered by typical power appetite.
const (
	ClassDFT    Class = iota // plain DFT functionals: lowest power
	ClassHybrid              // HSE: high sustained power
	ClassRPA                 // ACFDT/RPA: high peaks, CPU phases
)

func (c Class) String() string {
	switch c {
	case ClassDFT:
		return "dft"
	case ClassHybrid:
		return "hybrid"
	case ClassRPA:
		return "rpa"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Classify maps a method kind to its scheduler class. This mirrors
// §VI-A: "The batch system can determine the workload type of VASP
// jobs in the queue without costly computation" — it is a pure INCAR
// lookup.
func Classify(k method.Kind) Class {
	switch k {
	case method.HSE:
		return ClassHybrid
	case method.ACFDTR:
		return ClassRPA
	default:
		return ClassDFT
	}
}

// Policy decides the GPU power cap for a job class (0 = default).
type Policy interface {
	Name() string
	Cap(c Class) float64
	// BudgetPowerPerNode is the per-node power the scheduler reserves
	// for a job of this class when packing under the facility budget.
	BudgetPowerPerNode(c Class) float64
}

// NoCap runs everything at default limits; without profiles the
// scheduler must reserve node TDP.
type NoCap struct{ NodeTDP float64 }

// Name implements Policy.
func (NoCap) Name() string { return "nocap" }

// Cap implements Policy.
func (NoCap) Cap(Class) float64 { return 0 }

// BudgetPowerPerNode implements Policy.
func (p NoCap) BudgetPowerPerNode(Class) float64 { return p.NodeTDP }

// UniformCap applies one GPU cap to every job and budgets each node
// at the capped worst case (4 GPUs at the cap + host).
type UniformCap struct {
	Watts     float64
	HostWatts float64 // CPU+mem+peripheral allowance per node
}

// Name implements Policy.
func (p UniformCap) Name() string { return fmt.Sprintf("uniform-%.0f", p.Watts) }

// Cap implements Policy.
func (p UniformCap) Cap(Class) float64 { return p.Watts }

// BudgetPowerPerNode implements Policy.
func (p UniformCap) BudgetPowerPerNode(Class) float64 {
	return 4*p.Watts + p.HostWatts
}

// ProfileAware is the paper's proposal: per-class caps derived from
// the profile study, and per-class power reservations taken from the
// measured high power modes rather than worst cases.
type ProfileAware struct {
	// CapByClass holds the GPU cap per class.
	CapByClass map[Class]float64
	// ReserveByClass holds the per-node power reservation per class.
	ReserveByClass map[Class]float64
}

// DefaultProfileAware returns the policy the study supports: 50% TDP
// (200 W) for the hungry classes (<10% loss, §V-C) and 150 W for
// DFT-class jobs (no visible loss even lower). Reservations come from
// the measured capped high power modes.
func DefaultProfileAware() ProfileAware {
	return ProfileAware{
		CapByClass: map[Class]float64{
			ClassDFT:    150,
			ClassHybrid: 200,
			ClassRPA:    200,
		},
		ReserveByClass: map[Class]float64{
			ClassDFT:    950,  // capped DFT-class node mode + margin
			ClassHybrid: 1150, // 4×200 + host
			ClassRPA:    1150,
		},
	}
}

// Name implements Policy.
func (ProfileAware) Name() string { return "profile-aware" }

// Cap implements Policy.
func (p ProfileAware) Cap(c Class) float64 { return p.CapByClass[c] }

// BudgetPowerPerNode implements Policy.
func (p ProfileAware) BudgetPowerPerNode(c Class) float64 { return p.ReserveByClass[c] }

// Job is one queued batch job.
type Job struct {
	ID      string
	Bench   workloads.Benchmark
	Nodes   int
	Arrival float64 // seconds
}

// Validate checks the job.
func (j Job) Validate() error {
	if err := validateJob(j.ID, j.Nodes, j.Arrival); err != nil {
		return err
	}
	return j.Bench.Validate()
}

// validateJob is Validate without the benchmark check, which the
// streaming simulate loop runs once per distinct benchmark instead of
// once per job; it takes the job's own fields, which a mix record holds
// without a Job.
func validateJob(id string, nodes int, arrival float64) error {
	if id == "" {
		return fmt.Errorf("sched: job with empty ID")
	}
	if nodes <= 0 {
		return fmt.Errorf("sched: job %s with %d nodes", id, nodes)
	}
	if arrival < 0 {
		return fmt.Errorf("sched: job %s with negative arrival", id)
	}
	if math.IsNaN(arrival) || math.IsInf(arrival, 0) {
		return fmt.Errorf("sched: job %s with non-finite arrival %v", id, arrival)
	}
	return nil
}

// SortJobs orders jobs by arrival then ID (deterministic queue order).
func SortJobs(jobs []Job) {
	sort.Slice(jobs, func(i, k int) bool {
		if jobs[i].Arrival != jobs[k].Arrival {
			return jobs[i].Arrival < jobs[k].Arrival
		}
		return jobs[i].ID < jobs[k].ID
	})
}
