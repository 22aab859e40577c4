package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// deleteEntry removes key's entry if present, from disk and the memory
// tier — what disk eviction does to one key, or another process removing
// it.
func deleteEntry(s *Store, key string) error {
	if s.isClosed() {
		return errors.New("store: closed")
	}
	err := os.Remove(s.path(key))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: %w", err)
	}
	if s.mem != nil {
		s.mem.invalidate(key)
	}
	return nil
}

func mustOpen(t testing.TB, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundtrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	payload := []byte("the result bytes \x00\xff binary ok")
	if err := s.Put("job-key-1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("job-key-1")
	if !ok {
		t.Fatal("expected hit")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q != %q", got, payload)
	}
	if _, ok := s.Get("job-key-2"); ok {
		t.Fatal("unexpected hit for absent key")
	}
	if !s.Contains("job-key-1") || s.Contains("job-key-2") {
		t.Fatal("Contains disagrees with Get")
	}
}

func TestEmptyPayload(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if err := s.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("empty")
	if !ok || len(got) != 0 {
		t.Fatalf("want empty hit, got ok=%v len=%d", ok, len(got))
	}
}

func TestKeyValidation(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if err := s.Put("", []byte("x")); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := s.Put(string(make([]byte, maxKeyLen+1)), []byte("x")); err == nil {
		t.Fatal("oversized key accepted")
	}
}

// entryPath returns the on-disk file for key, verified to exist.
func entryPath(t *testing.T, s *Store, key string) string {
	t.Helper()
	p := s.path(key)
	if _, err := os.Stat(p); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTruncatedEntryIsMiss(t *testing.T) {
	for _, keep := range []int{0, 3, 10, headerFixed, headerFixed + 2} {
		t.Run(fmt.Sprint(keep), func(t *testing.T) {
			s := mustOpen(t, t.TempDir(), Options{})
			if err := s.Put("k", []byte("payload-payload-payload")); err != nil {
				t.Fatal(err)
			}
			p := entryPath(t, s, "k")
			if err := os.Truncate(p, int64(keep)); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get("k"); ok {
				t.Fatalf("truncated entry (%d bytes kept) served as hit", keep)
			}
		})
	}
}

// corrupt rewrites one entry file through fn.
func corrupt(t *testing.T, path string, fn func([]byte) []byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(b), 0o666); err != nil {
		t.Fatal(err)
	}
}

func TestForgedEntryIsMiss(t *testing.T) {
	cases := map[string]func([]byte) []byte{
		"magic": func(b []byte) []byte { b[0] = 'X'; return b },
		"future-version": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], FormatVersion+1)
			return b
		},
		"length-too-long": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 1<<40)
			return b
		},
		"length-too-short": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 1)
			return b
		},
		"payload-bitflip": func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"checksum-forged": func(b []byte) []byte { b[16] ^= 0xff; return b },
		"key-swapped": func(b []byte) []byte {
			copy(b[headerFixed:], "KEY-x")
			return b
		},
		"garbage": func(b []byte) []byte { return []byte("not an entry at all") },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			s := mustOpen(t, t.TempDir(), Options{})
			if err := s.Put("KEY-a", []byte("some payload bytes")); err != nil {
				t.Fatal(err)
			}
			corrupt(t, entryPath(t, s, "KEY-a"), fn)
			if _, ok := s.Get("KEY-a"); ok {
				t.Fatalf("%s entry served as hit", name)
			}
		})
	}
}

// TestCorruptedEntryRepairedByPut: a corrupted entry reads as a miss, and
// the next Put of that key repairs it in place (the EEXIST path validates
// the existing file and atomically replaces an invalid one), so a torn
// write never permanently defeats the store for its key.
func TestCorruptedEntryRepairedByPut(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if err := s.Put("k", []byte("good")); err != nil {
		t.Fatal(err)
	}
	corrupt(t, entryPath(t, s, "k"), func(b []byte) []byte { return b[:len(b)-1] })
	if _, ok := s.Get("k"); ok {
		t.Fatal("corrupt entry hit")
	}
	if err := s.Put("k", []byte("good")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || string(got) != "good" {
		t.Fatalf("repair failed: ok=%v got=%q", ok, got)
	}
	// A valid existing entry is NOT rewritten (first publish wins).
	before, err := os.Stat(entryPath(t, s, "k"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("good")); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(entryPath(t, s, "k"))
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Fatal("valid entry was needlessly republished")
	}
}

func TestConcurrentWritersOneKey(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	payload := bytes.Repeat([]byte("deterministic-result"), 100)
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Put("shared-key", payload)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	got, ok := s.Get("shared-key")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("hit=%v, payload intact=%v", ok, bytes.Equal(got, payload))
	}
	// No temp litter.
	des, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if de.Name()[0] == '.' {
			t.Fatalf("leftover temp file %s", de.Name())
		}
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 {
		t.Fatalf("want 1 entry, have %d", st.Entries)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		key := fmt.Sprintf("key-%d", k)
		payload := bytes.Repeat([]byte{byte(k)}, 512)
		for i := 0; i < 4; i++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				_ = s.Put(key, payload)
			}()
			go func() {
				defer wg.Done()
				if got, ok := s.Get(key); ok && !bytes.Equal(got, payload) {
					t.Errorf("%s: torn read", key)
				}
			}()
		}
	}
	wg.Wait()
}

func TestCrossProcessReuse(t *testing.T) {
	// Two independent Store handles over one directory model two
	// processes: written through one, read through a fresh one.
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	if err := w.Put("shared", []byte("result")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	got, ok := r.Get("shared")
	if !ok || string(got) != "result" {
		t.Fatalf("fresh handle: ok=%v got=%q", ok, got)
	}
}

func TestEvictionLRU(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 1000)
	entrySize := int64(headerFixed + len("key-0") + len(payload))
	// Budget for three entries.
	s := mustOpen(t, dir, Options{MaxBytes: 3 * entrySize})

	now := time.Now()
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		// Spread mtimes so LRU order is unambiguous even on coarse
		// filesystem timestamps.
		age := now.Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(s.path(key), age, age); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key-0 (oldest mtime) via Get so key-1 becomes the LRU victim.
	if _, ok := s.Get("key-0"); !ok {
		t.Fatal("key-0 missing before eviction")
	}
	if err := s.Put("key-3", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("key-1"); ok {
		t.Fatal("LRU victim key-1 survived")
	}
	for _, key := range []string{"key-0", "key-2", "key-3"} {
		if _, ok := s.Get(key); !ok {
			t.Fatalf("%s evicted out of LRU order", key)
		}
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes > 3*entrySize {
		t.Fatalf("store over budget after eviction: %d > %d", st.Bytes, 3*entrySize)
	}
}

func TestEvictionSparesFreshEntry(t *testing.T) {
	// A budget smaller than one entry must still keep the entry just
	// written (evicting it would make Put a no-op forever).
	s := mustOpen(t, t.TempDir(), Options{MaxBytes: 1})
	if err := s.Put("only", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("only"); !ok {
		t.Fatal("fresh entry evicted by its own Put")
	}
}

func TestScan(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	keys := map[string]bool{"alpha": false, "beta": false, "gamma": false}
	for k := range keys {
		if err := s.Put(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	// Foreign and corrupt files are skipped.
	if err := os.WriteFile(filepath.Join(s.Dir(), "foreign.txt"), []byte("hi"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), strings64("a")+suffix), []byte("junk"), 0o666); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := s.Scan(func(e EntryInfo) error {
		seen, ok := keys[e.Key]
		if !ok || seen {
			t.Fatalf("unexpected or duplicate key %q", e.Key)
		}
		keys[e.Key] = true
		if e.Size <= 0 || e.ModTime.IsZero() {
			t.Fatalf("bad entry info %+v", e)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(keys) {
		t.Fatalf("scanned %d entries, want %d", n, len(keys))
	}
}

// strings64 builds a 64-char pseudo-hash filename stem.
func strings64(c string) string {
	b := make([]byte, 64)
	for i := range b {
		b[i] = c[0]
	}
	return string(b)
}

func TestClosedStore(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("Get succeeded on closed store")
	}
	if err := s.Put("k2", []byte("v")); err == nil {
		t.Fatal("Put succeeded on closed store")
	}
}

// TestEntryEncoding pins the on-disk format documented in the package
// comment (and docs/SERVICE.md): any change here is a format break and
// must bump FormatVersion.
func TestEntryEncoding(t *testing.T) {
	key, payload := "k1", []byte("pay")
	b := encodeEntry(key, payload)
	if string(b[:4]) != "SLRS" {
		t.Fatalf("magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != 1 {
		t.Fatalf("version %d", v)
	}
	if l := binary.LittleEndian.Uint64(b[8:16]); l != uint64(len(payload)) {
		t.Fatalf("plen %d", l)
	}
	want := sha256.Sum256(payload)
	if !bytes.Equal(b[16:48], want[:]) {
		t.Fatal("checksum field mismatch")
	}
	if k := binary.LittleEndian.Uint16(b[48:50]); k != uint16(len(key)) {
		t.Fatalf("klen %d", k)
	}
	if string(b[50:52]) != key || string(b[52:]) != string(payload) {
		t.Fatal("key/payload bytes mismatch")
	}
	// File name is hex(sha256(key)).
	s := mustOpen(t, t.TempDir(), Options{})
	sum := sha256.Sum256([]byte(key))
	want64 := hex.EncodeToString(sum[:]) + suffix
	if got := filepath.Base(s.path(key)); got != want64 {
		t.Fatalf("entry name %q, want %q", got, want64)
	}
}

func BenchmarkPut(b *testing.B) {
	s := mustOpen(b, b.TempDir(), Options{})
	payload := bytes.Repeat([]byte("r"), 4096)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutSameKey(b *testing.B) {
	s := mustOpen(b, b.TempDir(), Options{})
	payload := bytes.Repeat([]byte("r"), 4096)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put("hot-key", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetHit(b *testing.B) {
	s := mustOpen(b, b.TempDir(), Options{})
	payload := bytes.Repeat([]byte("r"), 4096)
	if err := s.Put("hot-key", payload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get("hot-key"); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkGetMiss(b *testing.B) {
	s := mustOpen(b, b.TempDir(), Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get("absent"); ok {
			b.Fatal("hit")
		}
	}
}
