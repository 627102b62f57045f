package diskcache

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vasppower/internal/memo"
	"vasppower/internal/obs"
)

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// entryFile returns the on-disk path of key's entry.
func entryFile(s *Store, key string) string { return s.entryPath(s.entryName(key)) }

func TestRoundTripAndPersistence(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Epoch: "e1"})
	payload := []byte("the measured profile bytes")
	s.Put("spec-key", payload)
	got, ok := s.Get("spec-key")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if totalBytes(s) <= int64(len(payload)) {
		t.Fatalf("total bytes = %d, want > payload (header included)", totalBytes(s))
	}

	// A second store on the same directory — a later process — serves
	// the same entry.
	s2 := mustOpen(t, Options{Dir: dir, Epoch: "e1"})
	if s2.Len() != 1 {
		t.Fatalf("reopened Len = %d", s2.Len())
	}
	got, ok = s2.Get("spec-key")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}
}

func TestAbsentKeyMisses(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), Epoch: "e1"})
	if _, ok := s.Get("never-stored"); ok {
		t.Fatal("hit on an absent key")
	}
}

// TestEpochChangeMisses: a new epoch addresses different files, so old
// entries never match — the epoch-bump invalidation path.
func TestEpochChangeMisses(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, Options{Dir: dir, Epoch: "v1"})
	s1.Put("k", []byte("old-schema"))
	s2 := mustOpen(t, Options{Dir: dir, Epoch: "v2"})
	if _, ok := s2.Get("k"); ok {
		t.Fatal("entry from epoch v1 served under epoch v2")
	}
	// And the old entry is untouched (it would still serve a rollback).
	if got, ok := s1.Get("k"); !ok || string(got) != "old-schema" {
		t.Fatalf("v1 entry lost: %q, %v", got, ok)
	}
}

// TestHeaderEpochVerified plants an entry encoded under another epoch
// at the path a different epoch's key addresses (what a hash collision
// or a renamed file would look like): the header check must reject it.
func TestHeaderEpochVerified(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Epoch: "good"})
	path := entryFile(s, "k")
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, encodeEntry("evil", "k", []byte("x")), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("entry with mismatched header epoch served")
	}
	assertQuarantined(t, path)
}

// TestHeaderKeyVerified plants a valid entry for another key at this
// key's path; the embedded key must be verified.
func TestHeaderKeyVerified(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), Epoch: "e"})
	path := entryFile(s, "k")
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, encodeEntry("e", "other-key", []byte("x")), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("entry with mismatched embedded key served")
	}
}

// TestVersionMismatchQuarantined bumps the on-disk format version
// field: the entry must miss and be quarantined, not misparsed.
func TestVersionMismatchQuarantined(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), Epoch: "e"})
	s.Put("k", []byte("payload"))
	path := entryFile(s, "k")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[4]++ // first byte of the little-endian version field
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("future-version entry served")
	}
	assertQuarantined(t, path)
}

func assertQuarantined(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry still live at %s (err %v)", path, err)
	}
	if _, err := os.Stat(path + quarExt); err != nil {
		t.Fatalf("no quarantine file: %v", err)
	}
}

// TestEveryTruncationDetected is the differential corruption sweep:
// every proper prefix of a valid entry file must be detected as
// corrupt — a miss, never a value.
func TestEveryTruncationDetected(t *testing.T) {
	reg := obs.NewRegistry()
	s := mustOpen(t, Options{Dir: t.TempDir(), Epoch: "epoch-1"})
	s.Instrument(NewMetrics(reg, "dc"))
	payload := []byte("truncation sweep payload: 0123456789abcdef")
	s.Put("k", payload)
	path := entryFile(s, "k")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(full); n++ {
		if err := os.WriteFile(path, full[:n], 0o666); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get("k"); ok {
			t.Fatalf("truncation to %d/%d bytes served a value: %q", n, len(full), got)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("truncated entry (%d bytes) not quarantined", n)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["dc.corrupt"]; got != int64(len(full)) {
		t.Fatalf("corrupt counter = %d, want %d (one per truncation)", got, len(full))
	}
	if snap.Counters["dc.hits"] != 0 {
		t.Fatal("a truncated entry counted as a hit")
	}
}

// TestOrphanTempFilesSweptOnOpen: a process killed mid-write (a
// cancelled sweep, a crash) leaves a tmp-* file the atomic rename
// never published. Open must delete it without indexing it, and the
// published entries around it stay intact.
func TestOrphanTempFilesSweptOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Epoch: "e1"})
	payload := []byte("published entry")
	s.Put("k", payload)
	shard := filepath.Dir(entryFile(s, "k"))
	orphans := []string{
		filepath.Join(shard, "tmp-123456"),
		filepath.Join(dir, "tmp-789"),
	}
	for _, p := range orphans {
		if err := os.WriteFile(p, []byte("partial write"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	s2 := mustOpen(t, Options{Dir: dir, Epoch: "e1"})
	for _, p := range orphans {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived Open (err %v)", p, err)
		}
	}
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (orphans must not be indexed)", s2.Len())
	}
	if got, ok := s2.Get("k"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("published entry damaged by sweep: %q, %v", got, ok)
	}
}

// TestEveryByteFlipDetected flips one bit in every byte position of a
// valid entry: each flip must miss (the checksum, structure, or header
// verification catches it), never return a wrong value.
func TestEveryByteFlipDetected(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), Epoch: "epoch-1"})
	payload := []byte("bit flip sweep payload: the quick brown fox")
	s.Put("k", payload)
	path := entryFile(s, "k")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(full); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= byte(1 << (i % 8))
		if err := os.WriteFile(path, mut, 0o666); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get("k"); ok {
			t.Fatalf("flip at byte %d/%d served a value: %q", i, len(full), got)
		}
	}
	// Restore the pristine bytes: the entry must serve again (the
	// detector rejects corruption, not the format).
	if err := os.WriteFile(path, full, 0o666); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("pristine entry no longer serves: %q, %v", got, ok)
	}
}

// FuzzEntryDecode feeds arbitrary bytes to the entry decoder. The
// property: decoding never panics, and any accepted input is exactly
// the canonical encoding of its payload — there is no non-canonical
// byte string the decoder will vouch for.
func FuzzEntryDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeEntry("e", "k", []byte("payload")))
	f.Add(encodeEntry("e", "k", nil))
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, err := decodeEntry(raw, "e", "k")
		if err != nil {
			return
		}
		if canon := encodeEntry("e", "k", payload); !bytes.Equal(canon, raw) {
			t.Fatalf("decoder accepted non-canonical bytes:\n raw:  %x\n canon:%x", raw, canon)
		}
	})
}

// TestLRUGC fills past the byte bound and checks the oldest entries
// are evicted, recently-used entries survive, and the total stays at
// or under the bound.
func TestLRUGC(t *testing.T) {
	reg := obs.NewRegistry()
	// Entry overhead: header + 64-hex key; payloads of 1000 bytes
	// dominate. Budget for roughly three entries.
	payload := bytes.Repeat([]byte("x"), 1000)
	probe := encodeEntry("e", "key-0", payload)
	maxBytes := int64(3*len(probe) + len(probe)/2)
	s := mustOpen(t, Options{Dir: t.TempDir(), MaxBytes: maxBytes, Epoch: "e"})
	s.Instrument(NewMetrics(reg, "dc"))

	for i := 0; i < 6; i++ {
		s.Put(fmt.Sprintf("key-%d", i), payload)
		// Keep key-0 hot so recency, not insertion order, decides.
		if i >= 1 {
			if _, ok := s.Get("key-0"); !ok {
				t.Fatalf("hot key-0 evicted after insert %d", i)
			}
		}
	}
	if got := totalBytes(s); got > maxBytes {
		t.Fatalf("total bytes = %d > bound %d after GC", got, maxBytes)
	}
	if _, ok := s.Get("key-0"); !ok {
		t.Fatal("most-recently-used entry evicted")
	}
	if _, ok := s.Get("key-5"); !ok {
		t.Fatal("newest entry evicted")
	}
	if _, ok := s.Get("key-1"); ok {
		t.Fatal("coldest entry survived GC")
	}
	if ev := reg.Snapshot().Counters["dc.evictions"]; ev == 0 {
		t.Fatal("evictions counter = 0")
	}
	// The bound also holds against the filesystem, not just the index.
	var onDisk int64
	filepath.Walk(s.Dir(), func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(info.Name(), entryExt) {
			onDisk += info.Size()
		}
		return nil
	})
	if onDisk > maxBytes {
		t.Fatalf("on-disk bytes %d > bound %d", onDisk, maxBytes)
	}
}

// TestOversizeSingleEntryEvicted: one entry above the bound is itself
// evicted — the bound holds even when nothing else can be freed.
func TestOversizeSingleEntryEvicted(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), MaxBytes: 64, Epoch: "e"})
	s.Put("big", bytes.Repeat([]byte("y"), 4096))
	if got := totalBytes(s); got > 64 {
		t.Fatalf("total bytes = %d > bound", got)
	}
	if s.Len() != 0 {
		t.Fatalf("oversize entry retained (Len = %d)", s.Len())
	}
}

// TestMetricsCounters pins the disk tier's counter ledger across a
// miss, a write, a hit, and a corruption — the set the run manifest
// reports.
func TestMetricsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	s := mustOpen(t, Options{Dir: t.TempDir(), Epoch: "e"})
	s.Instrument(NewMetrics(reg, "diskcache"))

	s.Get("k") // miss
	payload := []byte("metrics payload")
	s.Put("k", payload) // write
	s.Get("k")          // hit
	path := entryFile(s, "k")
	raw, _ := os.ReadFile(path)
	raw[len(raw)-1] ^= 0xff
	os.WriteFile(path, raw, 0o666)
	s.Get("k") // corrupt → quarantined miss

	c := reg.Snapshot().Counters
	if c["diskcache.hits"] != 1 || c["diskcache.misses"] != 2 || c["diskcache.corrupt"] != 1 {
		t.Fatalf("hit/miss/corrupt = %d/%d/%d, want 1/2/1",
			c["diskcache.hits"], c["diskcache.misses"], c["diskcache.corrupt"])
	}
	if c["diskcache.bytes_written"] <= int64(len(payload)) {
		t.Fatalf("bytes_written = %d, want > payload size", c["diskcache.bytes_written"])
	}
	if c["diskcache.bytes_read"] != c["diskcache.bytes_written"] {
		t.Fatalf("bytes_read = %d, want %d (one full read of one full write)",
			c["diskcache.bytes_read"], c["diskcache.bytes_written"])
	}
	if c["diskcache.errors"] != 0 {
		t.Fatalf("errors = %d", c["diskcache.errors"])
	}
}

// TestConcurrentWarmSameKey is the tentpole's concurrency contract:
// two goroutines warming the same key through a memo.Cache backed by
// the disk tier share one computation (singleflight spans both tiers),
// the caller that led it writes the value behind, as experiments.Env
// does, and a second cache — a fresh process — then serves the key
// from disk without computing at all.
func TestConcurrentWarmSameKey(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, Options{Dir: dir, Epoch: "e"})
	codec := memo.Codec[string]{Decode: func(b []byte) (string, error) { return string(b), nil }}

	c1 := memo.New[string]()
	c1.SetStore(st, codec)
	var computes atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			computed := false
			v, how, err := c1.Flight(context.Background(), "shared", func() (string, error) {
				computes.Add(1)
				computed = true
				return "value", nil
			})
			if err != nil || v != "value" {
				t.Errorf("Do = %q, %v", v, err)
			}
			if how == memo.Led && computed {
				st.Put("shared", []byte(v))
			}
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times for one key", n)
	}

	// Fresh memory tier, same directory: disk serves, compute never runs.
	c2 := memo.New[string]()
	c2.SetStore(mustOpen(t, Options{Dir: dir, Epoch: "e"}), codec)
	v, _, err := c2.Flight(context.Background(), "shared", func() (string, error) {
		t.Error("compute ran despite a warm disk entry")
		return "", nil
	})
	if err != nil || v != "value" {
		t.Fatalf("warm Do = %q, %v", v, err)
	}
}

// TestConcurrentStoreStress hammers one store from many goroutines
// with overlapping keys, reads and writes; under -race this
// is the store's thread-safety proof.
func TestConcurrentStoreStress(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), MaxBytes: 1 << 16, Epoch: "e"})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("key-%d", (g+i)%13)
				want := []byte(key + "-payload")
				s.Put(key, want)
				if got, ok := s.Get(key); ok && !bytes.Equal(got, want) {
					t.Errorf("Get(%s) = %q, want %q", key, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// totalBytes reports the live entry bytes the store knows about.
func totalBytes(s *Store) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}
