package diskcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"vasppower/internal/obs"
)

func mustOpen(t testing.TB, opts Options) *Store {
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
	s := mustOpen(t, Options{Dir: t.TempDir(), Epoch: "epoch-1", Metrics: NewMetrics(reg)})
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
	if got := snap.Counters["diskcache.corrupt"]; got != int64(len(full)) {
		t.Fatalf("corrupt counter = %d, want %d (one per truncation)", got, len(full))
	}
	if snap.Counters["diskcache.hits"] != 0 {
		t.Fatal("a truncated entry counted as a hit")
	}
}

// TestOrphanTempFilesSweptBeforeFirstWrite: a process killed mid-write
// (a cancelled sweep, a crash) leaves a tmp-* file the atomic rename
// never published. A store lists its directory only before its first
// write, so the orphans survive an Open and a read; the first Put
// deletes them without indexing them, and the published entries
// around them stay intact.
func TestOrphanTempFilesSweptBeforeFirstWrite(t *testing.T) {
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
	orphansLive := func(when string, want bool) {
		t.Helper()
		for _, p := range orphans {
			if _, err := os.Stat(p); (err == nil) != want {
				t.Fatalf("%s: orphan %s live = %v, want %v (err %v)", when, p, err == nil, want, err)
			}
		}
	}
	s2 := mustOpen(t, Options{Dir: dir, Epoch: "e1"})
	orphansLive("after Open", true)
	if got, ok := s2.Get("k"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("published entry: %q, %v", got, ok)
	}
	orphansLive("after a read", true)
	s2.Put("k2", payload)
	orphansLive("after the first write", false)
	if s2.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (orphans must not be indexed)", s2.Len())
	}
	if got, ok := s2.Get("k"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("published entry damaged by sweep: %q, %v", got, ok)
	}
}

// TestReadsBeforeFirstWriteKeepRecency: the hits a store serves before
// its first write decide eviction order as they would if the directory
// had been indexed at Open. Every entry's mtime is set to one instant
// after the reads, so the files carry no recency and the reads alone
// must: the entry kept hot by reads survives Puts past the bound, and
// the unread entries go first.
func TestReadsBeforeFirstWriteKeepRecency(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 1000)
	probe := encodeEntry("e", "key-0", payload)
	maxBytes := int64(4*len(probe) + len(probe)/2)
	fill := mustOpen(t, Options{Dir: dir, Epoch: "e"})
	for i := 0; i < 4; i++ {
		fill.Put(fmt.Sprintf("key-%d", i), payload)
	}

	s := mustOpen(t, Options{Dir: dir, MaxBytes: maxBytes, Epoch: "e"})
	for _, key := range []string{"key-2", "key-0"} {
		if _, ok := s.Get(key); !ok {
			t.Fatalf("%s missed", key)
		}
	}
	same := time.Unix(1_700_000_000, 0)
	for i := 0; i < 4; i++ {
		if err := os.Chtimes(entryFile(s, fmt.Sprintf("key-%d", i)), same, same); err != nil {
			t.Fatal(err)
		}
	}
	live := func(key string) bool {
		_, err := os.Stat(entryFile(s, key))
		return err == nil
	}
	// Each Put past the bound evicts one entry: the two unread ones (in
	// either order, as their mtimes tie), then key-2, read before key-0.
	for i, want := range []struct{ gone, kept []string }{
		{kept: []string{"key-0", "key-2"}},
		{gone: []string{"key-1", "key-3"}, kept: []string{"key-0", "key-2"}},
		{gone: []string{"key-2"}, kept: []string{"key-0"}},
	} {
		s.Put(fmt.Sprintf("new-%d", i), payload)
		for _, key := range want.gone {
			if live(key) {
				t.Fatalf("after put %d: %s survived", i, key)
			}
		}
		for _, key := range want.kept {
			if !live(key) {
				t.Fatalf("after put %d: %s evicted", i, key)
			}
		}
	}
	if got := totalBytes(s); got > maxBytes {
		t.Fatalf("total bytes = %d > bound %d", got, maxBytes)
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
	s := mustOpen(t, Options{Dir: t.TempDir(), MaxBytes: maxBytes, Epoch: "e", Metrics: NewMetrics(reg)})

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
	if ev := reg.Snapshot().Counters["diskcache.evictions"]; ev == 0 {
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
	s := mustOpen(t, Options{Dir: t.TempDir(), Epoch: "e", Metrics: NewMetrics(reg)})

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

// TestConcurrentReadsBeforeFirstWrite: goroutines read a filled
// directory while one of them writes, so the scan runs with hits made
// before it and after it (run it with -race). Every read is served, and
// the store then knows every entry, each once.
func TestConcurrentReadsBeforeFirstWrite(t *testing.T) {
	dir := t.TempDir()
	fill := mustOpen(t, Options{Dir: dir, Epoch: "e"})
	for i := 0; i < 13; i++ {
		fill.Put(fmt.Sprintf("key-%d", i), []byte("payload"))
	}
	s := mustOpen(t, Options{Dir: dir, MaxBytes: 1 << 20, Epoch: "e"})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 13; i++ {
				key := fmt.Sprintf("key-%d", (g+i)%13)
				if _, ok := s.Get(key); !ok {
					t.Errorf("%s missed", key)
				}
				if g == 0 && i == 6 {
					s.Put("new", []byte("payload"))
				}
			}
		}(g)
	}
	wg.Wait()
	if n := s.Len(); n != 14 {
		t.Fatalf("Len = %d, want 14", n)
	}
}

// Len reports the number of live entries the store knows about,
// scanning the directory first if it has not written yet.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scanLocked()
	return len(s.index)
}

// totalBytes reports the live entry bytes the store knows about.
func totalBytes(s *Store) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// BenchmarkOpenAndRead is a read-only warm run's disk tier: open a
// store over a directory of 110 entries of 16 KB (about what a warm
// study reads) and read each entry once.
func BenchmarkOpenAndRead(b *testing.B) {
	dir := b.TempDir()
	fill := mustOpen(b, Options{Dir: dir, Epoch: "e"})
	payload := bytes.Repeat([]byte("p"), 16<<10)
	keys := make([]string, 110)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		fill.Put(keys[i], payload)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := mustOpen(b, Options{Dir: dir, Epoch: "e"})
		for _, key := range keys {
			if _, ok := s.Get(key); !ok {
				b.Fatalf("%s missed", key)
			}
		}
	}
}
