package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"vasppower/internal/core"
	"vasppower/internal/obs"
	"vasppower/internal/workloads"
)

// studyWarmRunners are the -quick runners of the repository benchmark's
// study-warm workload: all but fig2, exta, extb and extc.
var studyWarmRunners = []string{
	"table1", "fig1", "fig3", "fig4/5", "fig6", "fig7", "fig8", "fig9",
	"fig10/12", "fig11", "fig13", "extd", "exte", "extf", "extg",
}

// flushedRun runs the named -quick runners through a fresh Env over
// dir, flushes it, and returns the Env and the bytes the flush wrote.
func flushedRun(t *testing.T, dir string, names []string) (*Env, int64) {
	t.Helper()
	reg := obs.NewRegistry()
	env := observedRun(t, &obs.Obs{Metrics: reg}, dir, names)
	return env, reg.Snapshot().Counters["diskcache.bytes_written"]
}

// observedRun runs the named -quick runners through a fresh Env over
// dir ("" = memory only) reporting to o, and flushes it.
func observedRun(t *testing.T, o *obs.Obs, dir string, names []string) *Env {
	t.Helper()
	env, err := NewEnv(EnvOptions{Obs: o, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	runners := quickRunners(Config{Seed: 2024, Quick: true, Env: env})
	for _, name := range names {
		if err := runners[name](); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	env.Flush()
	return env
}

// storedPayloads returns what env's disk tier holds under each key env
// led.
func storedPayloads(t *testing.T, env *Env) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, l := range env.led {
		data, ok := env.Store().Get(l.key)
		if !ok {
			t.Fatalf("%s: led but not stored", l.key)
		}
		out[l.key] = data
	}
	return out
}

// TestWarmRunFillsNoModes: a cold run of the study-warm runners stores
// filled every mode cell it read, so a warm run over its directory
// fills none: it writes nothing, and every entry it holds in memory
// encodes to the bytes on disk.
func TestWarmRunFillsNoModes(t *testing.T) {
	dir := t.TempDir()
	if _, written := flushedRun(t, dir, studyWarmRunners); written == 0 {
		t.Fatal("the cold run wrote nothing")
	}
	warm, written := flushedRun(t, dir, studyWarmRunners)
	if written != 0 {
		t.Fatalf("the warm run wrote %d bytes, want 0", written)
	}
	milc := 0
	for _, l := range warm.led {
		if strings.HasPrefix(l.key, milcKeyPrefix) {
			milc++
		}
	}
	if milc == 0 {
		t.Fatalf("the warm run led %d lookups, none of a MILC entry", len(warm.led))
	}
	for key, data := range storedPayloads(t, warm) {
		jp, _ := warm.cached(key)
		if !bytes.Equal(core.AppendJobProfile(nil, jp), data) {
			t.Errorf("%s: the warm run filled a mode cell of a stored entry", key)
		}
	}
}

// TestWarmStudyComputesOnlyFig1: over a directory its own cold run
// filled, a warm run of the study-warm runners serves every measure
// span, the MILC ones included, from the cache; it misses nothing on
// disk, writes nothing, and samples no trace but fig1's, which no cache
// holds.
func TestWarmStudyComputesOnlyFig1(t *testing.T) {
	dir := t.TempDir()
	flushedRun(t, dir, studyWarmRunners)
	var trace bytes.Buffer
	reg := obs.NewRegistry()
	observedRun(t, &obs.Obs{Metrics: reg, Tracer: obs.NewTracer(&trace)}, dir, studyWarmRunners)
	warm := reg.Snapshot().Counters

	spans, milc := 0, 0
	for _, line := range strings.Split(strings.TrimSuffix(trace.String(), "\n"), "\n") {
		var sp struct {
			Span       string `json:"span"`
			Key        string `json:"key"`
			Resolution string `json:"resolution"`
			CacheHit   bool   `json:"cache_hit"`
		}
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if sp.Span != "measure" {
			continue
		}
		spans++
		if !sp.CacheHit {
			t.Errorf("%s (%s): computed on the warm run", sp.Key, sp.Resolution)
		}
		if sp.Resolution == "milc" {
			milc++
		}
	}
	if spans == 0 || milc == 0 {
		t.Fatalf("%d measure spans, %d of them MILC: the warm run's lookups are not traced", spans, milc)
	}
	if warm["diskcache.misses"] != 0 || warm["diskcache.bytes_written"] != 0 {
		t.Fatalf("diskcache misses %d, bytes written %d, want 0 and 0", warm["diskcache.misses"], warm["diskcache.bytes_written"])
	}

	fig1 := obs.NewRegistry()
	observedRun(t, &obs.Obs{Metrics: fig1}, "", []string{"fig1"})
	want := fig1.Snapshot().Counters["timeseries.samples"]
	if got := warm["timeseries.samples"]; got != want || want == 0 {
		t.Fatalf("the warm run sampled %d values, a fig1-only run %d: a runner outside fig1 computes", got, want)
	}
}

// TestFlushRewritesOnlyFilledEntries: after a fig13-only fill, a warm
// run of every study-warm runner reads modes of some fig13 entries
// that the fill left lazy. Flush rewrites exactly those entries, each
// with the cells the run filled (besides writing the entries it
// computed); a second such run then writes nothing.
func TestFlushRewritesOnlyFilledEntries(t *testing.T) {
	dir := t.TempDir()
	fill, _ := flushedRun(t, dir, []string{"fig13"})
	before := storedPayloads(t, fill)
	full, _ := flushedRun(t, dir, studyWarmRunners)
	after := storedPayloads(t, full)
	rewritten := 0
	for key, old := range before {
		was, err := core.DecodeJobProfile(old)
		if err != nil {
			t.Fatal(err)
		}
		jp, _ := full.cached(key)
		filled := jp.FilledModes() > was.FilledModes()
		if changed := !bytes.Equal(old, after[key]); changed != filled {
			t.Errorf("%s: rewritten %v, but the run filled %d cells over the stored %d", key, changed, jp.FilledModes(), was.FilledModes())
		}
		if filled {
			rewritten++
			if !bytes.Equal(after[key], core.AppendJobProfile(nil, jp)) {
				t.Errorf("%s: the rewrite is not the profile in memory", key)
			}
		}
	}
	if rewritten == 0 {
		t.Fatal("no fig13 entry was rewritten: the full run read no mode the fill left lazy")
	}
	if _, written := flushedRun(t, dir, studyWarmRunners); written != 0 {
		t.Fatalf("a second full run wrote %d bytes, want 0", written)
	}
}

// TestFlushConcurrentWithReaders: Flush runs while readers fill the
// mode cells of the entries it encodes (run it with -race). Whatever
// the interleaving, a last Flush stores every cell filled, bit-identical
// to what the readers read.
func TestFlushConcurrentWithReaders(t *testing.T) {
	dir := t.TempDir()
	env, err := NewEnv(EnvOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var specs []core.MeasureSpec
	for _, name := range []string{"PdO2", "GaAsBi-64", "Si256_hse"} {
		b, _ := workloads.ByName(name)
		specs = append(specs, core.MeasureSpec{Bench: b, Seed: 2024})
	}
	for _, spec := range specs {
		if _, err := env.Measure(spec); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := range specs {
				jp, err := env.Measure(specs[(i+r)%len(specs)])
				if err != nil {
					t.Error(err)
					return
				}
				readModes(jp)
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			env.Flush()
		}
	}()
	wg.Wait()
	env.Flush()

	for _, spec := range specs {
		jp, _ := env.Measure(spec)
		data, ok := env.Store().Get(SpecKey(spec))
		if !ok {
			t.Fatalf("%s: not stored", spec.Bench.Name)
		}
		stored, err := core.DecodeJobProfile(data)
		if err != nil {
			t.Fatal(err)
		}
		if n, want := stored.FilledModes(), jp.FilledModes(); n != want || n != 4+len(jp.GPUs) {
			t.Fatalf("%s: %d cells stored filled, %d filled in memory, want all %d", spec.Bench.Name, n, want, 4+len(jp.GPUs))
		}
		if !bytes.Equal(core.AppendJobProfile(nil, stored), core.AppendJobProfile(nil, jp)) {
			t.Fatalf("%s: the stored modes differ from the ones read", spec.Bench.Name)
		}
	}
}
