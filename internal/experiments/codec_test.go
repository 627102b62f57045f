package experiments

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"vasppower/internal/core"
	"vasppower/internal/obs"
	"vasppower/internal/sched"
	"vasppower/internal/workloads"
)

// recordingStore is a memory-backed memo.Store that keeps every Put.
type recordingStore struct {
	mu   sync.Mutex
	data map[string][]byte
}

func (s *recordingStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.data[key]
	return d, ok
}

func (s *recordingStore) Put(key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[key] = data
}

func (s *recordingStore) Clear() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = map[string][]byte{}
	return nil
}

func (s *recordingStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// TestProfileCodecRoundTripsQuickRun runs every -quick runner cold
// with the disk tier's codec behind a recording store, then checks
// each profile the run computed: its stored bytes decode to the value
// the memory tier holds, and re-encode to the same bytes (so every
// float keeps its bits).
func TestProfileCodecRoundTripsQuickRun(t *testing.T) {
	ResetCache()
	st := &recordingStore{data: map[string][]byte{}}
	cache.SetStore(st, profileCodec())
	defer DisableDiskCache()

	cfg := Config{Seed: 2024, Quick: true}
	runners := map[string]func() error{
		"table1":   func() error { _, err := RunTableI(cfg); return err },
		"fig1":     func() error { _, err := RunFig1(cfg); return err },
		"fig2":     func() error { _, err := RunFig2(cfg); return err },
		"fig3":     func() error { _, err := RunFig3(cfg); return err },
		"fig4/5":   func() error { _, err := RunScaling(cfg); return err },
		"fig6":     func() error { _, err := RunFig6(cfg); return err },
		"fig7":     func() error { _, err := RunFig7(cfg); return err },
		"fig8":     func() error { _, err := RunFig8(cfg); return err },
		"fig9":     func() error { _, err := RunFig9(cfg); return err },
		"fig10/12": func() error { _, err := RunCapStudy(cfg); return err },
		"fig11":    func() error { _, err := RunFig11(cfg); return err },
		"fig13":    func() error { _, err := RunFig13(cfg); return err },
		"exta":     func() error { _, err := RunExtScheduler(cfg); return err },
		"extb":     func() error { _, err := RunExtRepeats(cfg); return err },
		"extc":     func() error { _, err := RunExtC(cfg); return err },
		"extd":     func() error { _, err := RunExtD(cfg); return err },
		"exte":     func() error { _, err := RunExtE(cfg); return err },
		"extf":     func() error { _, err := RunExtF(cfg); return err },
		"extg":     func() error { _, err := RunExtG(cfg); return err },
	}
	for name, run := range runners {
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	if st.Len() == 0 || st.Len() != cache.Len() {
		t.Fatalf("%d profiles stored for %d computed", st.Len(), cache.Len())
	}
	for key, data := range st.data {
		want, ok := cache.Get(key)
		if !ok {
			t.Fatalf("%s: stored but not in the memory tier", key)
		}
		got, err := core.DecodeJobProfile(data)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded profile differs from the computed one", key)
		}
		if again := core.AppendJobProfile(nil, got); !bytes.Equal(again, data) {
			t.Fatalf("%s: re-encoding the decoded profile changed the bytes", key)
		}
	}
}

// TestCorruptProfilePayloadRecomputed: an entry whose disk framing is
// intact but whose codec payload is malformed is quarantined and
// recomputed, never served.
func TestCorruptProfilePayloadRecomputed(t *testing.T) {
	st, err := EnableDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer DisableDiskCache()
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)

	cfg := quickCfg()
	b, _ := workloads.ByName("PdO2")
	key := measureKey(cfg.platform(), b, 1, 1, 0, cfg.seed(), 0)
	want, err := core.Measure(core.MeasureSpec{Bench: b, Platform: cfg.platform(), Seed: cfg.seed()})
	if err != nil {
		t.Fatal(err)
	}
	good := core.AppendJobProfile(nil, want)
	badHasMode := bytes.Clone(good)
	badHasMode[len(badHasMode)-1] = 7
	corrupt := map[string][]byte{
		"truncated":     good[:len(good)-1],
		"trailing byte": append(bytes.Clone(good), 0),
		"has-mode byte": badHasMode,
	}
	for name, payload := range corrupt {
		ResetCache()
		st.Put(key, payload)
		got, err := measure(cfg, b, 1, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: served a profile other than the recomputed one", name)
		}
		if data, ok := st.Get(key); !ok || !bytes.Equal(data, good) {
			t.Fatalf("%s: the recomputed profile did not replace the corrupt entry", name)
		}
	}
	if n := reg.Snapshot().Counters["diskcache.corrupt"]; n != int64(len(corrupt)) {
		t.Fatalf("diskcache.corrupt = %d, want %d", n, len(corrupt))
	}
}

// TestExtSchedulerMeasuresThroughCache: the scheduler study's three
// catalogs share the measurement cache, so each distinct spec is
// computed once, under the same key the other runners use.
func TestExtSchedulerMeasuresThroughCache(t *testing.T) {
	ResetCache()
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)
	cfg := quickCfg()
	if _, err := RunExtScheduler(cfg); err != nil {
		t.Fatal(err)
	}
	if misses := reg.Snapshot().Counters["memo.misses"]; cache.Len() == 0 || misses != int64(cache.Len()) {
		t.Fatalf("memo.misses = %d for %d distinct specs: a spec was measured twice", misses, cache.Len())
	}
	for _, j := range sched.SyntheticJobMix(8, 90, cfg.seed()) {
		if _, ok := cache.Get(measureKey(cfg.platform(), j.Bench, j.Nodes, 1, 0, cfg.seed(), 0)); !ok {
			t.Errorf("%s on %d nodes: uncapped baseline not under the runners' key", j.Bench.Name, j.Nodes)
		}
	}
}
