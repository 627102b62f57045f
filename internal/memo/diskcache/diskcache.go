// Package diskcache is a persistent, content-addressed backing store
// for memo.Cache: the second tier that makes warm-start sweeps cheap.
// Every cap sweep, platform matrix, and figure regeneration re-runs
// the same expensive MeasureSpec simulations; the in-process memo tier
// dedups them within one run, and this package carries them across
// runs.
//
// Each entry is one file whose name is the SHA-256 of (epoch, key), so
// the directory needs no manifest and two processes writing the same
// key converge on the same file. Entries are written atomically
// (temp file + rename), carry a self-describing header (magic, format
// version, epoch, full key, payload length, payload checksum), and are
// verified in full on every read: corruption, truncation, an epoch or
// format bump, or a hash collision all fail verification and are
// treated as a miss — the offending file is quarantined (renamed aside
// for post-mortem) and a counter incremented, never returned as a
// value. A size-bounded LRU garbage collector prunes the directory
// after writes.
package diskcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vasppower/internal/obs"
)

// Entry file format, little-endian, with no padding or trailing slack
// (decode rejects any file that is not byte-for-byte a canonical
// encoding):
//
//	magic "VPWC" | uint32 format version | uint32 epoch length | epoch
//	| uint32 key length | key | uint64 payload length
//	| 32-byte SHA-256 of payload | payload
const (
	magic = "VPWC"
	// FormatVersion is the container format version. Bump it when this
	// header layout changes; every existing entry then misses (and is
	// quarantined) instead of being misparsed.
	FormatVersion = 1

	entryExt = ".cache"
	quarExt  = ".quar"

	// tmpPrefix names in-progress atomic writes; the scan before a
	// store's first write sweeps any left behind by a killed process.
	tmpPrefix = "tmp-"

	// maxHeaderStr bounds the epoch and key lengths a decoder will
	// accept, so a corrupt length field cannot drive a huge allocation.
	maxHeaderStr = 1 << 20
)

// Metrics is the store's observability hook, registered under a prefix
// (conventionally "diskcache") and surfaced in the run manifest. All
// fields are nil-safe no-ops by default.
type Metrics struct {
	Hits         *obs.Counter // entries served (verified) from disk
	Misses       *obs.Counter // absent entries
	Corrupt      *obs.Counter // failed verification → quarantined
	Evictions    *obs.Counter // entries removed by the LRU GC
	Errors       *obs.Counter // I/O errors on the write path (dropped Puts)
	BytesRead    *obs.Counter // file bytes read on hits
	BytesWritten *obs.Counter // file bytes written on Puts
}

// NewMetrics registers the store metric set under prefix in reg. A nil
// registry yields a usable all-no-op Metrics.
func NewMetrics(reg *obs.Registry, prefix string) *Metrics {
	return &Metrics{
		Hits:         reg.Counter(prefix + ".hits"),
		Misses:       reg.Counter(prefix + ".misses"),
		Corrupt:      reg.Counter(prefix + ".corrupt"),
		Evictions:    reg.Counter(prefix + ".evictions"),
		Errors:       reg.Counter(prefix + ".errors"),
		BytesRead:    reg.Counter(prefix + ".bytes_read"),
		BytesWritten: reg.Counter(prefix + ".bytes_written"),
	}
}

// Options configures Open.
type Options struct {
	// Dir is the cache directory; created if absent. Entries live in
	// 256 two-hex-character shard subdirectories, git-object style.
	Dir string
	// MaxBytes bounds the total size of live entry files; 0 means
	// unbounded. The LRU GC runs after every write and evicts
	// least-recently-used entries until the total is at or under the
	// bound.
	MaxBytes int64
	// Epoch is the caller's cache-format epoch: an opaque string mixed
	// into every entry's content address and verified in its header.
	// Bump it whenever the encoded value schema or the semantics of the
	// computation change; old entries then simply never match.
	Epoch string
}

// indexEntry is the in-memory record of one live entry file.
type indexEntry struct {
	size    int64
	lastUse int64 // logical LRU clock tick of the last hit or write
}

// Store is a directory-backed memo.Store. Safe for concurrent use
// within a process; across processes, atomic writes and full
// verification keep readers safe, while the size accounting is
// per-process (each process bounds what it has seen).
//
// A store lists its directory once, before its first write (or Len):
// a run that only reads does one open and one read per entry.
type Store struct {
	dir      string
	maxBytes int64
	epoch    string
	metrics  atomic.Pointer[Metrics]

	mu    sync.Mutex
	index map[string]*indexEntry // entry name (hex digest) → state
	total int64                  // sum of live entry file sizes
	clock int64                  // logical LRU clock
	// scanned reports whether the directory scan has built index;
	// until it has, hits holds the names Get served, in order.
	scanned bool
	hits    []string
}

// Open opens the cache directory, creating it if needed. It reads
// nothing: the scan that indexes the existing entries runs before the
// store's first write.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("diskcache: empty cache directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	s := &Store{
		dir:      opts.Dir,
		maxBytes: opts.MaxBytes,
		epoch:    opts.Epoch,
		index:    make(map[string]*indexEntry),
	}
	s.metrics.Store(&Metrics{})
	return s, nil
}

// scanLocked lists the directory once, before the store's first write
// or Len: it sweeps the temp files a killed writer left, indexes every
// entry, oldest first by modification time, replays the hits served
// before it in order, so the LRU order is the one a scan at Open would
// have built, and runs the GC if the directory is over MaxBytes.
func (s *Store) scanLocked(m *Metrics) {
	if s.scanned {
		return
	}
	s.scanned = true
	type scanned struct {
		name string
		size int64
		mod  int64
	}
	var found []scanned
	// The walk skips what it cannot read, so it returns no error.
	_ = filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			// A vanished or unreadable file is not a scan failure.
			return nil
		}
		if strings.HasPrefix(d.Name(), tmpPrefix) {
			// A process killed mid-write leaves an orphaned temp file
			// the rename never published. Sweep it: a cancelled sweep
			// must not accumulate partial entries on disk. (Entries
			// themselves are never partial — writes are rename-atomic.)
			os.Remove(path)
			return nil
		}
		if !strings.HasSuffix(d.Name(), entryExt) {
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return nil
		}
		name := strings.TrimSuffix(d.Name(), entryExt)
		found = append(found, scanned{name: name, size: info.Size(), mod: info.ModTime().UnixNano()})
		return nil
	})
	sort.Slice(found, func(i, j int) bool {
		if found[i].mod != found[j].mod {
			return found[i].mod < found[j].mod
		}
		return found[i].name < found[j].name
	})
	for _, f := range found {
		s.clock++
		s.index[f.name] = &indexEntry{size: f.size, lastUse: s.clock}
		s.total += f.size
	}
	// A hit's entry may have been quarantined or removed since; only
	// the entries the scan found are touched.
	for _, name := range s.hits {
		if e, ok := s.index[name]; ok {
			s.clock++
			e.lastUse = s.clock
		}
	}
	s.hits = nil
	s.gcLocked(m)
}

// Instrument attaches (or, with nil, detaches) metrics. The store
// always holds a non-nil Metrics whose individual counters are nil-safe
// no-ops when detached.
func (s *Store) Instrument(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	s.metrics.Store(m)
}

// Dir returns the cache directory.
func (s *Store) Dir() string { return s.dir }

// entryName is the content address of key under the store's epoch.
func (s *Store) entryName(key string) string {
	h := sha256.New()
	h.Write([]byte(s.epoch))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return hex.EncodeToString(h.Sum(nil))
}

// entryPath shards entries across 256 subdirectories by the digest's
// first byte so no single directory grows unboundedly.
func (s *Store) entryPath(name string) string {
	return filepath.Join(s.dir, name[:2], name+entryExt)
}

// encodeEntry builds the canonical file bytes for (epoch, key, payload).
func encodeEntry(epoch, key string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	buf := make([]byte, 0, len(magic)+4+4+len(epoch)+4+len(key)+8+len(sum)+len(payload))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, FormatVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(epoch)))
	buf = append(buf, epoch...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, sum[:]...)
	buf = append(buf, payload...)
	return buf
}

// decodeEntry verifies raw as a canonical entry for (epoch, key) and
// returns its payload. Every failure mode — short file, wrong magic or
// version, epoch or key mismatch (including hash collisions), length
// mismatch, trailing bytes, checksum mismatch — returns an error.
func decodeEntry(raw []byte, epoch, key string) ([]byte, error) {
	r := raw
	take := func(n int) ([]byte, error) {
		if n < 0 || len(r) < n {
			return nil, fmt.Errorf("diskcache: truncated entry (%d bytes short)", n-len(r))
		}
		b := r[:n]
		r = r[n:]
		return b, nil
	}
	m, err := take(len(magic))
	if err != nil {
		return nil, err
	}
	if string(m) != magic {
		return nil, fmt.Errorf("diskcache: bad magic %q", m)
	}
	vb, err := take(4)
	if err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint32(vb); v != FormatVersion {
		return nil, fmt.Errorf("diskcache: format version %d, want %d", v, FormatVersion)
	}
	readStr := func(what, want string) error {
		lb, err := take(4)
		if err != nil {
			return err
		}
		n := binary.LittleEndian.Uint32(lb)
		if n > maxHeaderStr {
			return fmt.Errorf("diskcache: %s length %d exceeds limit", what, n)
		}
		sb, err := take(int(n))
		if err != nil {
			return err
		}
		if string(sb) != want {
			return fmt.Errorf("diskcache: %s mismatch", what)
		}
		return nil
	}
	if err := readStr("epoch", epoch); err != nil {
		return nil, err
	}
	if err := readStr("key", key); err != nil {
		return nil, err
	}
	lb, err := take(8)
	if err != nil {
		return nil, err
	}
	plen := binary.LittleEndian.Uint64(lb)
	sumb, err := take(sha256.Size)
	if err != nil {
		return nil, err
	}
	if uint64(len(r)) != plen {
		return nil, fmt.Errorf("diskcache: payload is %d bytes, header says %d", len(r), plen)
	}
	payload := r
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], sumb) {
		return nil, fmt.Errorf("diskcache: payload checksum mismatch")
	}
	return payload, nil
}

// Get returns the verified payload stored for key. Any file that fails
// verification is quarantined and reported as a miss — a corrupt entry
// is never returned as a value.
func (s *Store) Get(key string) ([]byte, bool) {
	name := s.entryName(key)
	path := s.entryPath(name)
	m := s.metrics.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, err := os.ReadFile(path)
	if err != nil {
		m.Misses.Add(1)
		return nil, false
	}
	payload, err := decodeEntry(raw, s.epoch, key)
	if err != nil {
		s.quarantineLocked(name, m)
		m.Corrupt.Add(1)
		m.Misses.Add(1)
		return nil, false
	}
	m.Hits.Add(1)
	m.BytesRead.Add(int64(len(raw)))
	if s.scanned {
		s.touchLocked(name, int64(len(raw)))
	} else {
		s.hits = append(s.hits, name)
	}
	// Best-effort mtime bump so a future process's scan rebuilds the
	// same recency order this process observed.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return payload, true
}

// Put stores data under key, atomically (temp file + rename) so a
// crash or a concurrent reader never observes a partial entry, then
// runs the LRU GC. Best-effort: I/O failures drop the write and count
// an error.
func (s *Store) Put(key string, data []byte) {
	name := s.entryName(key)
	path := s.entryPath(name)
	entry := encodeEntry(s.epoch, key, data)
	m := s.metrics.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scanLocked(m)
	if err := s.writeAtomic(path, entry); err != nil {
		m.Errors.Add(1)
		return
	}
	m.BytesWritten.Add(int64(len(entry)))
	s.touchLocked(name, int64(len(entry)))
	s.gcLocked(m)
}

// writeAtomic writes data to path via a same-directory temp file and
// rename, so the entry appears all-at-once or not at all.
func (s *Store) writeAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), tmpPrefix+"*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// touchLocked records (or refreshes) an entry in the LRU index.
func (s *Store) touchLocked(name string, size int64) {
	s.clock++
	if e, ok := s.index[name]; ok {
		s.total += size - e.size
		e.size = size
		e.lastUse = s.clock
		return
	}
	s.index[name] = &indexEntry{size: size, lastUse: s.clock}
	s.total += size
}

// dropLocked forgets an entry without touching the file.
func (s *Store) dropLocked(name string) {
	if e, ok := s.index[name]; ok {
		s.total -= e.size
		delete(s.index, name)
	}
}

// quarantineLocked moves a failed entry aside (same shard directory,
// ".quar" suffix) so it stops matching lookups but survives for
// post-mortem; if even the rename fails the file is removed.
func (s *Store) quarantineLocked(name string, m *Metrics) {
	path := s.entryPath(name)
	if err := os.Rename(path, path+quarExt); err != nil {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			m.Errors.Add(1)
		}
	}
	s.dropLocked(name)
}

// MarkCorrupt implements memo.CorruptMarker: the cache's codec failed
// to decode bytes this store handed back (corruption below the
// checksum's sight is impossible, but a codec/schema mismatch within
// one epoch is not), so quarantine the entry and count it.
func (s *Store) MarkCorrupt(key string) {
	m := s.metrics.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quarantineLocked(s.entryName(key), m)
	m.Corrupt.Add(1)
}

// gcLocked evicts least-recently-used entries until the live total is
// at or under MaxBytes (when bounded).
func (s *Store) gcLocked(m *Metrics) {
	if s.maxBytes <= 0 {
		return
	}
	for s.total > s.maxBytes && len(s.index) > 0 {
		oldest, oldestUse := "", int64(0)
		for name, e := range s.index {
			if oldest == "" || e.lastUse < oldestUse {
				oldest, oldestUse = name, e.lastUse
			}
		}
		if err := os.Remove(s.entryPath(oldest)); err != nil && !os.IsNotExist(err) {
			m.Errors.Add(1)
		}
		s.dropLocked(oldest)
		m.Evictions.Add(1)
	}
}

// Len reports the number of live entries this process knows about,
// scanning the directory first if no write has yet.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scanLocked(s.metrics.Load())
	return len(s.index)
}
