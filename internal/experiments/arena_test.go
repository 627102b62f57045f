package experiments

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"vasppower/internal/core"
	"vasppower/internal/hw/node"
	"vasppower/internal/telemetry"
	"vasppower/internal/workloads"
)

// arenaStep is one computed lookup of an arena sequence: a Measure, or
// a MeasureGroup over caps when caps is not nil.
type arenaStep struct {
	spec core.MeasureSpec
	caps []float64
}

// specs returns the per-point specs the step's profiles answer.
func (st arenaStep) specs() []core.MeasureSpec {
	if st.caps == nil {
		return []core.MeasureSpec{st.spec}
	}
	out := make([]core.MeasureSpec, len(st.caps))
	for i, capW := range st.caps {
		out[i] = st.spec
		out[i].CapW = capW
	}
	return out
}

func (st arenaStep) measure(e *Env) ([]core.JobProfile, error) {
	if st.caps != nil {
		return e.MeasureGroup(st.spec, st.caps)
	}
	jp, err := e.Measure(st.spec)
	return []core.JobProfile{jp}, err
}

// arenaSequence is a run of distinct measurements (every lookup
// computes) that moves an Env's arenas through every change of shape
// their storage sees: schedules of four method kinds and very
// different lengths, 1 → 4 → 1 nodes, a cap, an operand entropy, two
// repeats (the sweep's best-repeat banks), and a cap sweep through
// MeasureGroup's shared context.
func arenaSequence(t testing.TB) []arenaStep {
	bench := func(name string) workloads.Benchmark {
		b, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("benchmark %s missing", name)
		}
		return b
	}
	pdo2, gaas, si, rpa := bench("PdO2"), bench("GaAsBi-64"), bench("Si256_hse"), bench("Si128_acfdtr")
	return []arenaStep{
		{spec: core.MeasureSpec{Bench: pdo2, Nodes: 1, Seed: 3}},
		{spec: core.MeasureSpec{Bench: si, Nodes: 4, Seed: 3}},
		{spec: core.MeasureSpec{Bench: gaas, Nodes: 1, Seed: 3, CapW: 200}},
		{spec: core.MeasureSpec{Bench: rpa, Nodes: 1, Seed: 3}},
		{spec: core.MeasureSpec{Bench: pdo2, Nodes: 4, Seed: 4, Entropy: 0.4}},
		{spec: core.MeasureSpec{Bench: gaas, Nodes: 1, Seed: 4, Repeats: 2}},
		{spec: core.MeasureSpec{Bench: si, Nodes: 1, Seed: 5}, caps: []float64{0, 250, 175}},
		{spec: core.MeasureSpec{Bench: rpa, Nodes: 2, Seed: 5, CapW: 300}},
		{spec: core.MeasureSpec{Bench: pdo2, Nodes: 1, Seed: 5}},
	}
}

// freshBytes encodes spec measured in a fresh Env, after checking that
// it equals the arena-free engine's profile (core.Measure).
func freshBytes(t *testing.T, spec core.MeasureSpec) []byte {
	t.Helper()
	fresh, err := newEnv().Measure(spec)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.Measure(spec)
	if err != nil {
		t.Fatal(err)
	}
	b := core.AppendJobProfile(nil, fresh)
	if !bytes.Equal(b, core.AppendJobProfile(nil, plain)) {
		t.Fatalf("%s nodes=%d cap=%g: a fresh Env's profile differs from core.Measure's",
			spec.Bench.Name, spec.Nodes, spec.CapW)
	}
	return b
}

// TestEnvArenaMatchesFresh runs the arena sequence through one Env,
// whose arenas every step reuses, and requires each profile to encode
// byte for byte as the same spec measured in a fresh Env. Profiles are
// encoded only after the whole sequence, so their modes are computed
// (and their series read) after later measurements reused the storage
// they were built in.
func TestEnvArenaMatchesFresh(t *testing.T) {
	for _, withHub := range []bool{false, true} {
		t.Run(fmt.Sprintf("hub=%v", withHub), func(t *testing.T) {
			var opts EnvOptions
			var sub *telemetry.Subscription
			if withHub {
				opts.Hub = telemetry.NewHub()
				var err error
				if sub, err = opts.Hub.Subscribe(node.DomainNode, 1<<16); err != nil {
					t.Fatal(err)
				}
			}
			env, err := NewEnv(opts)
			if err != nil {
				t.Fatal(err)
			}
			steps := arenaSequence(t)
			got := make([][]core.JobProfile, len(steps))
			for i, st := range steps {
				if got[i], err = st.measure(env); err != nil {
					t.Fatal(err)
				}
			}
			for i, st := range steps {
				for j, spec := range st.specs() {
					if !bytes.Equal(core.AppendJobProfile(nil, got[i][j]), freshBytes(t, spec)) {
						t.Errorf("step %d (%s nodes=%d cap=%g): arena profile differs from a fresh Env's",
							i, spec.Bench.Name, spec.Nodes, spec.CapW)
					}
				}
			}
			if sub != nil && sub.Len() == 0 {
				t.Fatal("the Env's hub received no node samples")
			}
		})
	}
}

// TestEnvArenaErrors fails measurements at each stage an arena is
// holding storage — schedule validation, entropy stamping after the
// build, the cap after the nodes took the banks — and requires the
// error core.Measure reports, and the next measurement in the same Env
// to match a fresh one.
func TestEnvArenaErrors(t *testing.T) {
	pdo2, _ := workloads.ByName("PdO2")
	broken := pdo2
	broken.NELM = 0
	env := newEnv()
	for i, bad := range []core.MeasureSpec{
		{Bench: broken, Seed: 1},
		{Bench: pdo2, Seed: 1, Entropy: 1.5},
		{Bench: pdo2, Nodes: 2, Seed: 1, CapW: 10},
	} {
		_, want := core.Measure(bad)
		if _, err := env.Measure(bad); err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("Env.Measure error %v, core.Measure error %v", err, want)
		}
		good := core.MeasureSpec{Bench: pdo2, Nodes: 2, Seed: uint64(10 + i)}
		jp, err := env.Measure(good)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(core.AppendJobProfile(nil, jp), freshBytes(t, good)) {
			t.Fatalf("after the error %v, the arena's next profile differs from a fresh Env's", want)
		}
	}
}

// TestEnvArenaConcurrent shares one Env between 8 goroutines, more than
// its free list keeps, each measuring the arena sequence at its own
// seeds, so all compute at once, arenas pass between goroutines, and
// some are dropped when the list is full. Every profile must equal a
// fresh Env's. Under -race it is the check that an arena serves one
// measurement at a time.
func TestEnvArenaConcurrent(t *testing.T) {
	const goroutines = 8
	steps := arenaSequence(t)
	seeded := func(st arenaStep, g int) arenaStep {
		st.spec.Seed += uint64(100 * g)
		return st
	}
	env := newEnv()
	got := make([][][]core.JobProfile, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([][]core.JobProfile, len(steps))
			for i, st := range steps {
				jps, err := seeded(st, g).measure(env)
				if err != nil {
					t.Error(err)
					return
				}
				got[g][i] = jps
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := 0; g < goroutines; g++ {
		for i, st := range steps {
			for j, spec := range seeded(st, g).specs() {
				if !bytes.Equal(core.AppendJobProfile(nil, got[g][i][j]), freshBytes(t, spec)) {
					t.Errorf("goroutine %d step %d (%s): profile differs from a fresh Env's", g, i, spec.Bench.Name)
				}
			}
		}
	}
}

// BenchmarkEnvMeasureCold is one computed Env.Measure per iteration:
// every seed is new, so every lookup misses and measures in the Env's
// arena, which is warm after the first iterations. B/op is what a cold
// measure allocates on the arena path. The memory cache is emptied
// each iteration so a long -benchtime does not keep every profile.
func BenchmarkEnvMeasureCold(b *testing.B) {
	for _, name := range []string{"PdO2", "GaAsBi-64", "Si256_hse"} {
		bench, ok := workloads.ByName(name)
		if !ok {
			b.Fatalf("benchmark %s missing", name)
		}
		b.Run("bench="+name, func(b *testing.B) {
			env := newEnv()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := env.Measure(core.MeasureSpec{Bench: bench, Seed: uint64(i) + 1}); err != nil {
					b.Fatal(err)
				}
				env.cache.Reset()
			}
		})
	}
}
