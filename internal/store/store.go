// Package store is a content-addressed, on-disk result store: a durable
// memoization layer for pure computations keyed by a stable content hash.
// The runner persists simulation results through it, so a result computed
// once — by any process, at any time — is never computed again.
//
// # On-disk layout
//
// A store is a single directory. Every entry is one file named
// sha256(key) in hex with an ".sre" suffix ("slicc result entry"):
//
//	store/
//	  06b86b27…fb9e.sre
//	  4b227777…8a9d.sre
//	  .tmp-372067319        (in-flight publish, ignored by readers)
//
// Each entry file is self-describing:
//
//	offset  size  field
//	     0     4  magic "SLRS"
//	     4     4  format version, uint32 little-endian (currently 1)
//	     8     8  payload length, uint64 little-endian
//	    16    32  SHA-256 of the payload
//	    48     2  key length, uint16 little-endian
//	    50     K  key bytes (UTF-8, the caller's logical key)
//	  50+K     P  payload bytes
//
// A reader validates everything before trusting anything: file size, magic,
// version, stored key, and the payload checksum. Any mismatch — a truncated
// write, a forged header, a flipped bit, an entry from a future format —
// makes the entry a cache miss, never an error. Deleting arbitrary files
// from the directory is always safe.
//
// # Concurrency
//
// Multiple processes may share one store directory. Reads take no locks:
// an entry file is immutable once published. Writes are atomic: the payload
// is written to a hidden temp file and published with link(2) (an O_EXCL
// operation — the first writer of a key wins and later writers of the same
// key discard their identical bytes), falling back to rename(2) on
// filesystems without hard links. Readers therefore never observe a
// partially written entry under its final name.
//
// # Eviction
//
// Options.MaxBytes bounds the directory size. Eviction is LRU approximated
// by file modification time: Get touches the entry it hits (best effort),
// and Put evicts oldest-touched entries until the store fits the budget,
// never evicting the entry it just published.
//
// # Memory tier
//
// Options.MemBytes enables a sharded in-memory hot tier above the disk
// store (see memtier.go). A memory hit returns the verified payload with
// no disk I/O, no checksum work and no allocation; disk hits promote
// into the tier, Put inserts, and disk eviction invalidates. A
// small negative cache short-circuits repeated misses. Because entries
// are immutable, the tier can never serve stale *content*; the only
// cross-process staleness is about *existence* (another process's removal
// or eviction is not seen by a key already cached here), which is benign
// and documented on Get.
//
// # Stats
//
// Stats reports the directory's entry count and total bytes without
// listing it when nothing has changed. Every change to the entry set moves
// the directory's mtime — link/rename in Put, unlink in eviction, and
// the same calls made by any other process sharing the directory — while Get's LRU touch changes an entry file's mtime, not the
// directory's, and a queue kept in a subdirectory churns only that
// subdirectory. So Stats stats the directory: an mtime equal to the one its
// last listing was taken under returns that listing's numbers; anything
// else lists again. Tier counters are always read live.
//
// A listing is remembered only if the directory's mtime is the same before
// and after it and was already more than statsRacyWindow (2 s) old when the
// listing started. That is git's "racily clean" rule: a write after the
// listing can then never land on the remembered timestamp on a filesystem
// whose mtime granularity is 2 s or finer, so a remembered listing is never
// wrong about the entry set. Consequences and limits:
//
//   - While the directory is being written (and for 2 s after the last
//     write) every Stats call lists, exactly as before.
//   - Another process truncating an entry in place changes Bytes without
//     moving the directory's mtime. Benign: such an entry already reads as
//     a miss, and the next change to the entry set corrects the number.
//   - On NFS the mtime Stats sees is as fresh as the client's
//     directory-attribute cache, and so are the numbers.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FormatVersion is the current entry format. Bumping it invalidates every
// existing entry cleanly: old entries fail version validation and read as
// misses, then age out via eviction.
const FormatVersion = 1

const (
	magic       = "SLRS"
	suffix      = ".sre"
	tmpPattern  = ".tmp-*"
	headerFixed = 4 + 4 + 8 + 32 + 2 // magic + version + plen + sum + klen
	maxKeyLen   = 4096
)

// statsRacyWindow is how old the directory's mtime must be, when a listing
// starts, for Stats to remember the listing: longer than the coarsest mtime
// granularity in use (FAT's 2 s), so no later write can reuse the
// remembered timestamp. A property of filesystems, not a setting.
const statsRacyWindow = 2 * time.Second

// Options configures a store.
type Options struct {
	// MaxBytes bounds the total size of entry files (0 = unlimited).
	// Enforced after each Put by evicting least-recently-used entries.
	MaxBytes int64
	// MemBytes bounds an in-memory hot tier of verified payloads
	// (0 = disabled). Memory hits skip disk, checksum and allocation
	// entirely; see the package docs ("Memory tier") for the coherence
	// contract and Get for the returned slice's read-only contract.
	MemBytes int64
	// Sync fsyncs each entry before publishing it. Off by default: the
	// store is a cache of recomputable results, and a torn write after a
	// crash is detected by checksum and treated as a miss.
	Sync bool
	// Logger receives store lifecycle events (today: eviction passes).
	// Nil is silent.
	Logger *slog.Logger
}

// Store is a content-addressed result store rooted at one directory.
// A Store is safe for concurrent use by multiple goroutines, and one
// directory is safe for concurrent use by multiple Stores (including in
// different processes).
type Store struct {
	dir  string
	opts Options

	// evictMu serializes eviction scans within this process so concurrent
	// Puts do not stampede ReadDir; cross-process races at worst evict
	// slightly more than needed, which is safe (entries are recomputable).
	evictMu sync.Mutex

	// evictions counts disk entries this Store evicted under the
	// MaxBytes budget (process-local: other processes sharing the
	// directory keep their own count).
	evictions atomic.Int64

	// mem is the optional in-memory hot tier (nil when Options.MemBytes
	// is zero).
	mem *memTier

	// usage is the last directory listing Stats took that met the
	// remembering rule (package docs, "Stats"); usageMtime is the directory
	// mtime it is valid for, zero when nothing is remembered. usageMu also
	// serializes the listing itself, so concurrent Stats calls share one.
	usageMu      sync.Mutex
	usageMtime   time.Time
	usageEntries int
	usageBytes   int64

	// listings counts directory listings (os.ReadDir of the store
	// directory); tests read it to show a quiescent store is not walked.
	listings atomic.Int64

	closed atomic.Bool
}

// Stats snapshots a store directory and this Store's cache tiers.
type Stats struct {
	// Entries is the number of entry files on disk.
	Entries int
	// Bytes is their total size.
	Bytes int64
	// DiskEvictions counts entries evicted from disk under the MaxBytes
	// budget by this Store since it was opened (process-local, unlike
	// Entries/Bytes which describe the shared directory).
	DiskEvictions int64

	// The remaining fields describe the in-memory hot tier and are zero
	// when Options.MemBytes is unset. MemBytes/MemEntries are current
	// occupancy (never double-counting disk: a disk eviction invalidates
	// the corresponding memory entry); the counters are process-local
	// totals since open.
	MemEntries   int
	MemBytes     int64
	MemEvictions int64
	MemHits      int64
	MemMisses    int64
	// NegativeHits counts lookups answered "absent" by the negative
	// cache without touching the filesystem.
	NegativeHits int64
}

// EntryInfo describes one entry found by Scan.
type EntryInfo struct {
	// Key is the logical key the entry was stored under, recovered from
	// the entry header.
	Key string
	// Size is the entry file's size in bytes (header + payload).
	Size int64
	// ModTime is the entry's last-touched time (publish or last Get hit).
	ModTime time.Time
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts}
	if opts.MemBytes > 0 {
		s.mem = newMemTier(opts.MemBytes)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close flushes and releases the store. The directory remains valid; a
// closed Store rejects further operations.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	// Entries are published atomically as they are written, so there is no
	// buffered state to flush; syncing the directory makes the published
	// names themselves durable where supported (best effort elsewhere).
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

func (s *Store) isClosed() bool { return s.closed.Load() }

// path returns the entry file path for key. File names are the hash of the
// key, so arbitrary keys (any length, any bytes) stay filesystem-safe.
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+suffix)
}

// Get returns the payload stored under key. ok is false on a miss — which
// includes every form of unreadable, truncated, corrupted, mismatched or
// future-format entry, by design: the store never surfaces corruption as an
// error, it just recomputes.
//
// With the memory tier enabled (Options.MemBytes > 0) the returned slice
// may be shared with other callers and with the tier itself, and must be
// treated as read-only; a memory hit may also briefly outlive another
// process's removal or eviction of the key (stale existence, never stale
// content — entries are immutable).
func (s *Store) Get(key string) (payload []byte, ok bool) {
	return s.lookup(key, true)
}

// Contains reports whether key has a valid entry, without touching its
// disk LRU position. It shares Get's lookup path exactly — including the
// memory and negative tiers — so the two can never disagree about an
// entry (a corrupt disk entry is a miss for both).
func (s *Store) Contains(key string) bool {
	_, ok := s.lookup(key, false)
	return ok
}

// lookup is the single read path under Get and Contains: memory tier,
// negative cache, then disk read + full validation, promoting disk hits
// into the memory tier. touch refreshes the entry's disk LRU position on
// a disk hit (memory hits deliberately skip the touch — zero disk I/O is
// the tier's point — so a disk-tier eviction can target a memory-hot
// entry; that entry is invalidated from memory and recomputed or
// re-fetched on next miss, which is benign).
func (s *Store) lookup(key string, touch bool) (payload []byte, ok bool) {
	if s.isClosed() {
		return nil, false
	}
	if s.mem != nil {
		switch p, state := s.mem.lookup(key); state {
		case memHit:
			return p, true
		case memNegative:
			return nil, false
		}
	}
	p := s.path(key)
	b, err := os.ReadFile(p)
	if err != nil {
		if s.mem != nil {
			s.mem.negAdd(key)
		}
		return nil, false
	}
	payload, ok = decodeEntry(b, key)
	if !ok {
		// Corrupt entries read as misses; remember that too (a local Put
		// repairs the file and clears the negative entry).
		if s.mem != nil {
			s.mem.negAdd(key)
		}
		return nil, false
	}
	if s.mem != nil {
		// Promote without copying: payload already sub-slices the freshly
		// read buffer, which nothing else owns.
		s.mem.insert(key, payload, false)
	}
	if touch {
		// LRU touch, best effort: a failure (read-only store, concurrent
		// eviction) costs only eviction precision.
		now := time.Now()
		_ = os.Chtimes(p, now, now)
	}
	return payload, true
}

// decodeEntry validates one entry file's bytes against key and returns the
// payload. Any inconsistency returns ok=false.
func decodeEntry(b []byte, key string) (payload []byte, ok bool) {
	if len(b) < headerFixed {
		return nil, false
	}
	if string(b[:4]) != magic {
		return nil, false
	}
	if binary.LittleEndian.Uint32(b[4:8]) != FormatVersion {
		return nil, false
	}
	plen := binary.LittleEndian.Uint64(b[8:16])
	var sum [32]byte
	copy(sum[:], b[16:48])
	klen := int(binary.LittleEndian.Uint16(b[48:50]))
	rest := b[headerFixed:]
	if len(rest) < klen {
		return nil, false
	}
	if string(rest[:klen]) != key {
		return nil, false
	}
	payload = rest[klen:]
	if uint64(len(payload)) != plen {
		return nil, false
	}
	if sha256.Sum256(payload) != sum {
		return nil, false
	}
	return payload, true
}

// encodeEntry builds the on-disk bytes for (key, payload).
func encodeEntry(key string, payload []byte) []byte {
	b := make([]byte, headerFixed+len(key)+len(payload))
	copy(b[:4], magic)
	binary.LittleEndian.PutUint32(b[4:8], FormatVersion)
	binary.LittleEndian.PutUint64(b[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(b[16:48], sum[:])
	binary.LittleEndian.PutUint16(b[48:50], uint16(len(key)))
	copy(b[headerFixed:], key)
	copy(b[headerFixed+len(key):], payload)
	return b
}

// Put stores payload under key, atomically and durably enough for a cache
// (see Options.Sync). Racing writers of the same key are safe: the first
// publish wins and the rest are discarded; by the store's contract a key's
// payload is a pure function of the key, so the winners are identical.
func (s *Store) Put(key string, payload []byte) error {
	if s.isClosed() {
		return errors.New("store: closed")
	}
	if len(key) == 0 || len(key) > maxKeyLen {
		return fmt.Errorf("store: key length %d out of range [1, %d]", len(key), maxKeyLen)
	}
	final := s.path(key)

	tmp, err := os.CreateTemp(s.dir, tmpPattern)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	// The temp file is removed on every path out of here: publish via
	// link() leaves it behind deliberately, and failures must not litter.
	defer os.Remove(tmpName)

	if _, err := tmp.Write(encodeEntry(key, payload)); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if s.opts.Sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}

	// O_EXCL publish: link() fails with EEXIST if the entry already
	// exists. Usually that means a concurrent (or earlier) writer beat us
	// with identical content — success — but a *corrupt* file under the
	// final name (torn write from a crashed process) must not block the
	// key forever: validate it, and replace invalid entries atomically
	// with rename(). Filesystems without hard links also take the
	// rename() path.
	if err := os.Link(tmpName, final); err != nil {
		replace := !errors.Is(err, fs.ErrExist)
		if !replace {
			b, rerr := os.ReadFile(final)
			if rerr != nil {
				replace = true
			} else if _, ok := decodeEntry(b, key); !ok {
				replace = true // existing entry is corrupt; repair it
			}
		}
		if replace {
			if err := os.Rename(tmpName, final); err != nil {
				return fmt.Errorf("store: publish: %w", err)
			}
		}
	}
	if s.mem != nil {
		// Cache the payload (copied: the caller owns and may reuse its
		// buffer, and the memory tier serves without re-verification, so
		// it must be immune to later mutation) and clear any negative
		// entry for the key.
		s.mem.insert(key, payload, true)
	}
	if s.opts.MaxBytes > 0 {
		s.evict(final)
	}
	return nil
}

// Stats reports the directory's entry count and total size, plus this
// Store's process-local tier counters. An unchanged directory costs one
// stat(2): the last listing is reused while the directory's mtime still
// equals the one it was taken under (package docs, "Stats"); a changed or
// recently written directory is listed, O(entries).
func (s *Store) Stats() (Stats, error) {
	st := Stats{DiskEvictions: s.evictions.Load()}
	if s.mem != nil {
		s.mem.addStats(&st)
	}
	if s.isClosed() {
		return st, errors.New("store: closed")
	}
	s.usageMu.Lock()
	defer s.usageMu.Unlock()
	before, err := dirMtime(s.dir)
	if err != nil {
		return st, err
	}
	if !s.usageMtime.IsZero() && s.usageMtime.Equal(before) {
		st.Entries, st.Bytes = s.usageEntries, s.usageBytes
		return st, nil
	}
	started := time.Now()
	err = s.scanFiles(func(path string, de fs.DirEntry) error {
		info, err := de.Info()
		if err != nil {
			return nil // racing eviction; skip
		}
		st.Entries++
		st.Bytes += info.Size()
		return nil
	})
	if err != nil {
		return st, err
	}
	s.usageMtime = time.Time{}
	if after, err := dirMtime(s.dir); err == nil && after.Equal(before) && started.Sub(before) > statsRacyWindow {
		s.usageMtime, s.usageEntries, s.usageBytes = before, st.Entries, st.Bytes
	}
	return st, nil
}

func dirMtime(dir string) (time.Time, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return time.Time{}, fmt.Errorf("store: %w", err)
	}
	return fi.ModTime(), nil
}

// Scan walks every valid entry in the store and reports its logical key,
// size and last-touched time, in no particular order. Invalid or foreign
// files are skipped. The callback may not modify the store.
func (s *Store) Scan(fn func(EntryInfo) error) error {
	return s.scanFiles(func(path string, de fs.DirEntry) error {
		info, err := de.Info()
		if err != nil {
			return nil
		}
		key, ok := readEntryKey(path)
		if !ok {
			return nil
		}
		return fn(EntryInfo{Key: key, Size: info.Size(), ModTime: info.ModTime()})
	})
}

// scanFiles iterates the directory's entry files (skipping temp files and
// anything foreign).
func (s *Store) scanFiles(fn func(path string, de fs.DirEntry) error) error {
	if s.isClosed() {
		return errors.New("store: closed")
	}
	s.listings.Add(1)
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, suffix) {
			continue
		}
		if err := fn(filepath.Join(s.dir, name), de); err != nil {
			return err
		}
	}
	return nil
}

// readEntryKey recovers the logical key from an entry file's header,
// validating only as much as needed (magic, version, key length).
func readEntryKey(path string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	var hdr [headerFixed]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return "", false
	}
	if string(hdr[:4]) != magic || binary.LittleEndian.Uint32(hdr[4:8]) != FormatVersion {
		return "", false
	}
	klen := int(binary.LittleEndian.Uint16(hdr[48:50]))
	if klen == 0 || klen > maxKeyLen {
		return "", false
	}
	key := make([]byte, klen)
	if _, err := f.ReadAt(key, int64(headerFixed)); err != nil {
		return "", false
	}
	return string(key), true
}

// evict removes least-recently-touched entries until the store fits
// Options.MaxBytes, sparing the just-published file.
func (s *Store) evict(spare string) {
	s.evictMu.Lock()
	defer s.evictMu.Unlock()

	type fileAge struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []fileAge
	var total int64
	err := s.scanFiles(func(path string, de fs.DirEntry) error {
		info, err := de.Info()
		if err != nil {
			return nil
		}
		files = append(files, fileAge{path: path, size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
		return nil
	})
	if err != nil || total <= s.opts.MaxBytes {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	var evicted int
	var freed int64
	for _, f := range files {
		if total <= s.opts.MaxBytes {
			break
		}
		if f.path == spare {
			continue
		}
		// Recover the logical key before the file disappears so the
		// memory tier can drop its copy too — otherwise Stats would keep
		// counting the evicted entry's bytes in the memory tier while the
		// disk tier has already reclaimed them.
		var key string
		var haveKey bool
		if s.mem != nil {
			key, haveKey = readEntryKey(f.path)
		}
		if os.Remove(f.path) == nil || !fileExists(f.path) {
			total -= f.size
			evicted++
			freed += f.size
			if haveKey {
				s.mem.invalidate(key)
			}
		}
	}
	if evicted > 0 {
		s.evictions.Add(int64(evicted))
		if s.opts.Logger != nil {
			s.opts.Logger.Info("store eviction",
				"evicted", evicted, "freed_bytes", freed,
				"remaining_bytes", total, "max_bytes", s.opts.MaxBytes)
		}
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
