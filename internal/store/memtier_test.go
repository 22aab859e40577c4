package store

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
)

// memOpts enables a comfortably large memory tier for tests that only
// care about hit/miss behavior, not budget pressure.
var memOpts = Options{MemBytes: 64 << 20}

func TestMemTierServesWithoutDisk(t *testing.T) {
	s := mustOpen(t, t.TempDir(), memOpts)
	payload := []byte("cached payload bytes")
	if err := s.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	// Put inserted the payload into the tier: remove the disk file and the
	// key must still be served — a memory hit does zero disk I/O.
	if err := os.Remove(entryPath(t, s, "k")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("mem tier miss after disk removal: ok=%v got=%q", ok, got)
	}
	if !s.Contains("k") {
		t.Fatal("Contains disagrees with Get on a memory hit")
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.MemHits < 2 || st.MemEntries != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestMemTierPromotesDiskHits(t *testing.T) {
	dir := t.TempDir()
	// Write through a tier-less handle so the first tiered Get is a real
	// disk read.
	w := mustOpen(t, dir, Options{})
	payload := []byte("promote me")
	if err := w.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, memOpts)
	if got, ok := s.Get("k"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("disk hit: ok=%v got=%q", ok, got)
	}
	if err := os.Remove(entryPath(t, s, "k")); err != nil {
		t.Fatal(err)
	}
	// The disk hit promoted the payload; the second Get is a memory hit.
	if got, ok := s.Get("k"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("promotion lost: ok=%v got=%q", ok, got)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.MemMisses != 1 || st.MemHits != 1 {
		t.Fatalf("want 1 miss (promote) + 1 hit, got %+v", st)
	}
}

func TestMemTierDeleteInvalidates(t *testing.T) {
	s := mustOpen(t, t.TempDir(), memOpts)
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := deleteEntry(s, "k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("deleted key served from memory")
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.MemEntries != 0 || st.MemBytes != 0 {
		t.Fatalf("tier retains deleted entry: %+v", st)
	}
	// Delete also seeded the negative cache: the miss above never touched
	// the filesystem.
	if st.NegativeHits != 1 {
		t.Fatalf("want 1 negative hit, got %d", st.NegativeHits)
	}
}

func TestNegativeCache(t *testing.T) {
	s := mustOpen(t, t.TempDir(), memOpts)
	// First miss reads disk and seeds the negative cache; repeats are
	// answered from memory.
	for i := 0; i < 3; i++ {
		if _, ok := s.Get("absent"); ok {
			t.Fatal("hit for absent key")
		}
	}
	if s.Contains("absent") {
		t.Fatal("Contains hit for absent key")
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.MemMisses != 1 || st.NegativeHits != 3 {
		t.Fatalf("want 1 real miss + 3 negative hits, got %+v", st)
	}
	// A local Put clears the negative entry immediately.
	if err := s.Put("absent", []byte("now present")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("absent"); !ok || string(got) != "now present" {
		t.Fatalf("negative entry survived Put: ok=%v got=%q", ok, got)
	}
}

func TestNegativeCacheCorruptEntry(t *testing.T) {
	s := mustOpen(t, t.TempDir(), memOpts)
	if err := s.Put("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Purge the cached copy so the corrupted file is actually read.
	s.mem.invalidate("k")
	corrupt(t, entryPath(t, s, "k"), func(b []byte) []byte { b[len(b)-1] ^= 1; return b })
	if _, ok := s.Get("k"); ok {
		t.Fatal("corrupt entry hit")
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("corrupt entry hit (negative path)")
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// invalidate seeded one negative hit, the corrupt read seeded another.
	if st.NegativeHits < 1 {
		t.Fatalf("corrupt read not remembered: %+v", st)
	}
	// Put repairs the entry and clears the negative state.
	if err := s.Put("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k"); !ok || string(got) != "payload" {
		t.Fatalf("repair: ok=%v got=%q", ok, got)
	}
}

// sameShardKeys returns n distinct keys that map to one shard of t, so
// LRU order within the shard is fully deterministic.
func sameShardKeys(tier *memTier, n int) []string {
	target := tier.shard("anchor")
	keys := []string{"anchor"}
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		if tier.shard(k) == target {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestMemTierLRUEviction(t *testing.T) {
	tier := newMemTier(memShardCount * 3 * (memEntryOverhead + 16))
	keys := sameShardKeys(tier, 4)
	payload := bytes.Repeat([]byte("p"), 10)
	for _, k := range keys[:3] {
		tier.insert(k, payload, true)
	}
	// Touch keys[0] so keys[1] is the LRU victim when keys[3] arrives.
	if _, state := tier.lookup(keys[0]); state != memHit {
		t.Fatalf("lookup(%s) = %d", keys[0], state)
	}
	tier.insert(keys[3], payload, true)
	if _, state := tier.lookup(keys[1]); state == memHit {
		t.Fatal("LRU victim survived")
	}
	for _, k := range []string{keys[0], keys[2], keys[3]} {
		if _, state := tier.lookup(k); state != memHit {
			t.Fatalf("%s evicted out of LRU order", k)
		}
	}
	if got := tier.evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
}

func TestMemTierByteBudget(t *testing.T) {
	budget := int64(memShardCount * 2 * (memEntryOverhead + 20))
	tier := newMemTier(budget)
	keys := sameShardKeys(tier, 8)
	for _, k := range keys {
		tier.insert(k, bytes.Repeat([]byte("x"), 12), true)
	}
	var st Stats
	tier.addStats(&st)
	if st.MemBytes > budget/memShardCount {
		t.Fatalf("shard over budget: %d > %d", st.MemBytes, budget/memShardCount)
	}
	if st.MemEvictions == 0 {
		t.Fatal("no evictions under byte pressure")
	}
}

func TestMemTierOversizedEntrySkipped(t *testing.T) {
	tier := newMemTier(memShardCount * 256)
	tier.insert("big", bytes.Repeat([]byte("x"), 4096), true)
	if _, state := tier.lookup("big"); state == memHit {
		t.Fatal("entry larger than a shard was cached")
	}
	var st Stats
	tier.addStats(&st)
	if st.MemEntries != 0 || st.MemBytes != 0 {
		t.Fatalf("oversized entry charged to the budget: %+v", st)
	}
}

func TestMemTierInsertSparesItself(t *testing.T) {
	// A shard budget below one entry must not evict the entry just
	// inserted (mirrors the disk tier's TestEvictionSparesFreshEntry).
	tier := newMemTier(memShardCount) // 1 byte per shard
	tier.insert("only", []byte("payload"), true)
	if _, state := tier.lookup("only"); state == memHit {
		// With a 1-byte shard the entry exceeds shardMax and is skipped;
		// either way it must not be half-inserted. Re-check with a budget
		// of exactly one entry.
		t.Skip("entry skipped as oversized")
	}
	size := int64(len("only")+len("payload")) + memEntryOverhead
	tier = newMemTier(memShardCount * size)
	tier.insert("only", []byte("payload"), true)
	if _, state := tier.lookup("only"); state != memHit {
		t.Fatal("fresh entry evicted by its own insert")
	}
}

func TestMemTierCopySemantics(t *testing.T) {
	s := mustOpen(t, t.TempDir(), memOpts)
	buf := []byte("original")
	if err := s.Put("k", buf); err != nil {
		t.Fatal(err)
	}
	// The caller owns its buffer and may scribble on it; the tier serves
	// without re-verification, so Put must have copied.
	copy(buf, "mangled!")
	if got, ok := s.Get("k"); !ok || string(got) != "original" {
		t.Fatalf("tier aliases the caller's Put buffer: ok=%v got=%q", ok, got)
	}
}

func TestDiskEvictionInvalidatesMemTier(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 1000)
	entrySize := int64(headerFixed + len("key-0") + len(payload))
	s := mustOpen(t, t.TempDir(), Options{MaxBytes: 2 * entrySize, MemBytes: 64 << 20})
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DiskEvictions == 0 {
		t.Fatal("no disk evictions under MaxBytes pressure")
	}
	// Every disk-evicted entry was invalidated from the tier too, so
	// memory occupancy never counts bytes the disk already reclaimed.
	if st.MemEntries != st.Entries {
		t.Fatalf("tier holds %d entries but disk holds %d: %+v", st.MemEntries, st.Entries, st)
	}
	// Split counters: budget evictions on disk are not memory evictions.
	if st.MemEvictions != 0 {
		t.Fatalf("disk eviction counted as memory eviction: %+v", st)
	}
}

// TestCrossProcessCoherence pins the multi-process contract from the
// package docs: two Store handles over one directory can never disagree
// about an entry's *content* (entries are immutable), only — briefly and
// benignly — about its *existence*.
func TestCrossProcessCoherence(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, memOpts) // "process A", tiered
	b := mustOpen(t, dir, Options{})

	payload := []byte("the one true payload")
	if err := a.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	// B sees A's write immediately (disk is the source of truth).
	if got, ok := b.Get("k"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("b misses a's write: ok=%v", ok)
	}

	// Stale existence: B deletes; A's cached copy may still serve. That is
	// the documented tradeoff — and the bytes are still the one true
	// payload for the key, never stale content.
	if err := deleteEntry(b, "k"); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Get("k"); ok && !bytes.Equal(got, payload) {
		t.Fatal("stale CONTENT served — contract violation")
	}

	// Foreign writes become visible: B puts a key A has never probed.
	if err := b.Put("foreign", []byte("from b")); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Get("foreign"); !ok || string(got) != "from b" {
		t.Fatalf("a misses b's write: ok=%v got=%q", ok, got)
	}

	// A negative entry may briefly hide a foreign write — but a LOCAL Put
	// of the key always clears it.
	if _, ok := a.Get("late"); ok {
		t.Fatal("phantom hit")
	}
	if err := b.Put("late", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := a.Put("late", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Get("late"); !ok || string(got) != "v" {
		t.Fatalf("negative entry outlived local Put: ok=%v got=%q", ok, got)
	}
}

func TestMemTierConcurrent(t *testing.T) {
	// Hammer one tiered store from many goroutines mixing Put, Get,
	// Delete and Contains; -race is the assertion, plus payload integrity.
	s := mustOpen(t, t.TempDir(), Options{MemBytes: 8 * 1024})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key-%d", i%10)
				want := bytes.Repeat([]byte{byte(i % 10)}, 64)
				switch g % 4 {
				case 0:
					_ = s.Put(key, want)
				case 1:
					if got, ok := s.Get(key); ok && !bytes.Equal(got, want) {
						t.Errorf("%s: wrong payload", key)
					}
				case 2:
					s.Contains(key)
				case 3:
					if i%17 == 0 {
						_ = deleteEntry(s, key)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestMemTierClosedStore(t *testing.T) {
	s := mustOpen(t, t.TempDir(), memOpts)
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("closed store served from memory")
	}
}

// BenchmarkGetHitMem is the tier's reason to exist, gated in CI against
// BenchmarkGetHit (same payload, same key): a memory hit must be an
// order of magnitude cheaper than the disk read + checksum, with at most
// 2 allocs/op (it should be 0).
func BenchmarkGetHitMem(b *testing.B) {
	s := mustOpen(b, b.TempDir(), memOpts)
	payload := bytes.Repeat([]byte("r"), 4096)
	if err := s.Put("hot-key", payload); err != nil {
		b.Fatal(err)
	}
	if _, ok := s.Get("hot-key"); !ok {
		b.Fatal("warmup miss")
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get("hot-key"); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkGetMissNegative(b *testing.B) {
	s := mustOpen(b, b.TempDir(), memOpts)
	if _, ok := s.Get("absent"); ok {
		b.Fatal("hit")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get("absent"); ok {
			b.Fatal("hit")
		}
	}
}
