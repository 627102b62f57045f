package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vasppower/internal/core"
	"vasppower/internal/hw/gpu"
	"vasppower/internal/hw/platform"
	"vasppower/internal/workloads"
)

// TestMILCKeyIdentity: every field of a MILC run that can change its
// profile changes its key, a cap at or above the TDP keys as uncapped,
// and no MILC key is the full or node key of a Table I spec.
func TestMILCKeyIdentity(t *testing.T) {
	base := workloads.MILCRunSpec{Spec: workloads.DefaultMILC(), Platform: platform.Default(), Nodes: 1, Repeats: 1, Seed: 2024}
	baseKey := MILCKey(base)
	keys := map[string]string{baseKey: "base"}
	distinct := func(what string, spec workloads.MILCRunSpec) {
		t.Helper()
		key := MILCKey(spec)
		if prev, ok := keys[key]; ok {
			t.Errorf("%s keys as %s: %q", what, prev, key)
		}
		keys[key] = what
	}

	// Every MILCSpec field, found by reflection, so a field the key
	// leaves out fails here.
	fields := reflect.TypeOf(base.Spec)
	for i := 0; i < fields.NumField(); i++ {
		f := fields.Field(i)
		var elems int
		switch f.Type.Kind() {
		case reflect.String, reflect.Int:
			elems = 1
		case reflect.Array:
			if f.Type.Elem().Kind() != reflect.Int {
				t.Fatalf("MILCSpec.%s: no case for %s", f.Name, f.Type)
			}
			elems = f.Type.Len()
		default:
			t.Fatalf("MILCSpec.%s: no case for %s", f.Name, f.Type)
		}
		for e := 0; e < elems; e++ {
			spec := base
			v := reflect.ValueOf(&spec.Spec).Elem().Field(i)
			if v.Kind() == reflect.Array {
				v = v.Index(e)
			}
			if v.Kind() == reflect.String {
				v.SetString(v.String() + "x")
			} else {
				v.SetInt(v.Int() + 1)
			}
			distinct("MILCSpec."+f.Name, spec)
		}
	}

	edited := platform.Default()
	edited.Efficiency = gpu.DefaultEfficiency()
	edited.Efficiency.OccFloor += 0.01
	renamed := platform.Default()
	renamed.Name += "-b"
	for what, edit := range map[string]func(*workloads.MILCRunSpec){
		"nodes":            func(s *workloads.MILCRunSpec) { s.Nodes = 2 },
		"repeats":          func(s *workloads.MILCRunSpec) { s.Repeats = 3 },
		"cap":              func(s *workloads.MILCRunSpec) { s.GPUPowerLimit = 250.5 },
		"clock":            func(s *workloads.MILCRunSpec) { s.GPUClockLimitMHz = 1200 },
		"seed":             func(s *workloads.MILCRunSpec) { s.Seed = 7 },
		"entropy":          func(s *workloads.MILCRunSpec) { s.OperandEntropy = 0.25 },
		"platform name":    func(s *workloads.MILCRunSpec) { s.Platform = renamed },
		"efficiency table": func(s *workloads.MILCRunSpec) { s.Platform = edited },
	} {
		spec := base
		edit(&spec)
		distinct(what, spec)
	}

	tdp := base.Platform.GPU.TDP
	for _, capW := range []float64{tdp, tdp + 50} {
		spec := base
		spec.GPUPowerLimit = capW
		if got := MILCKey(spec); got != baseKey {
			t.Errorf("cap %g W keys as %q, want the uncapped %q", capW, got, baseKey)
		}
	}
	spec := base
	spec.Platform = platform.Platform{}
	spec.Repeats = 0
	if got := MILCKey(spec); got != baseKey {
		t.Errorf("defaults key as %q, want %q", got, baseKey)
	}

	for _, b := range workloads.TableI() {
		for _, nodes := range []int{1, 2} {
			full := SpecKey(core.MeasureSpec{Bench: b, Nodes: nodes, Seed: 2024})
			for _, key := range []string{full, nodeKeyPrefix + full} {
				if what, ok := keys[key]; ok || strings.HasPrefix(key, milcKeyPrefix) {
					t.Errorf("%s at %d nodes: key %q is a MILC key (%s)", b.Name, nodes, key, what)
				}
			}
		}
	}
}

// TestMeasureMILCGroupMatchesRunMILC: every point of a MILC group is
// bit-identical to core.ProfileRun of workloads.RunMILC at that cap,
// computed and from the disk tier of a fresh Env.
func TestMeasureMILCGroupMatchesRunMILC(t *testing.T) {
	m := workloads.DefaultMILC()
	m.Trajectories, m.MDSteps = 1, 5
	spec := workloads.MILCRunSpec{Spec: m, Nodes: 1, Repeats: 2, Seed: 11}
	tdp := platform.Default().GPU.TDP
	caps := []float64{0, 250, tdp + 100, 150}
	encode := func(jp core.JobProfile) []byte {
		readModes(jp)
		return core.AppendJobProfile(nil, jp)
	}
	var want [][]byte
	for _, capW := range caps {
		pt := spec
		if capW < tdp {
			pt.GPUPowerLimit = capW
		}
		out, err := workloads.RunMILC(pt)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, encode(core.ProfileRun(out, core.DefaultSamplingInterval)))
	}
	// Four goroutines share each Env, so points are computed, joined
	// and read back concurrently (run it with -race).
	dir := t.TempDir()
	for _, run := range []string{"cold", "warm"} {
		env, err := NewEnv(EnvOptions{CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				order := append(append([]float64(nil), caps[g:]...), caps[:g]...)
				got, err := env.MeasureMILCGroup(spec, order)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range order {
					if !bytes.Equal(encode(got[i]), want[(g+i)%len(caps)]) {
						t.Errorf("%s run, cap %g W: the group's profile differs from RunMILC's", run, order[i])
					}
				}
			}(g)
		}
		wg.Wait()
		env.Flush()
	}
}
