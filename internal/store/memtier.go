package store

import (
	"sync"
	"sync/atomic"
)

// The in-memory hot tier caches verified entry payloads above the disk
// store. It leans entirely on the store's immutability invariant: a key's
// payload can never change — it can only appear (Put) or disappear
// (removal, eviction). Cached payloads therefore need no re-verification,
// no checksums, and no cross-process invalidation protocol for *content*;
// the only cross-process staleness possible is about *existence* (a key
// another process deleted or evicted may still be served from this
// process's memory), which is benign: the bytes are still the one true
// payload for that key.
//
// The tier is sharded to keep the hot-hit path contention-free: each
// shard owns a mutex, a map, and an intrusive LRU ring, and carries its
// own slice of the byte budget so eviction never takes more than one
// shard lock. A hit is a map lookup, two pointer splices and an atomic
// increment — no allocation, no I/O.
//
// Each shard also keeps a small negative cache of keys recently observed
// absent on disk, so repeated misses (pollers probing a key before its
// Put lands) skip the filesystem. A Put through this Store invalidates
// the negative entry; a Put by *another process* does not, so a negative
// entry may briefly hide a foreign write. It is capped, cleared
// wholesale on overflow, and never outlives a local Put.

// memShardCount is the number of shards (power of two, so the shard
// picker is a mask).
const memShardCount = 16

// memNegCap bounds each shard's negative cache; on overflow the shard's
// negative set is dropped wholesale (misses are cheap to re-discover).
const memNegCap = 256

// memEntryOverhead approximates the per-entry bookkeeping cost (struct,
// map bucket, key header) charged against the byte budget on top of the
// key and payload bytes.
const memEntryOverhead = 128

// lookup outcomes.
const (
	memMiss     = iota // not cached either way: fall through to disk
	memHit             // payload served from memory
	memNegative        // known-absent: report a miss without touching disk
)

// memEntry is one cached payload, linked into its shard's LRU ring.
type memEntry struct {
	key        string
	payload    []byte
	size       int64
	prev, next *memEntry
}

type memShard struct {
	mu      sync.Mutex
	entries map[string]*memEntry
	// root anchors the LRU ring: root.next is most-recent, root.prev is
	// the eviction candidate.
	root  memEntry
	bytes int64
	neg   map[string]struct{}
}

type memTier struct {
	shardMax int64 // per-shard byte budget
	shards   [memShardCount]memShard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	negHits   atomic.Int64
}

func newMemTier(maxBytes int64) *memTier {
	t := &memTier{shardMax: maxBytes / memShardCount}
	if t.shardMax < 1 {
		t.shardMax = 1
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.entries = make(map[string]*memEntry)
		sh.root.next = &sh.root
		sh.root.prev = &sh.root
		sh.neg = make(map[string]struct{})
	}
	return t
}

// shard picks the shard for key with an inline FNV-1a hash (no
// allocation; hash/fnv would force the key through an io.Writer).
func (t *memTier) shard(key string) *memShard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &t.shards[h&(memShardCount-1)]
}

// lookup is the tier's read path. On memHit the returned payload is the
// cached slice itself — shared, to be treated as read-only by callers
// (see Store.Get's contract).
func (t *memTier) lookup(key string) ([]byte, int) {
	sh := t.shard(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		// Splice to the front of the ring (most-recent).
		e.prev.next = e.next
		e.next.prev = e.prev
		e.prev = &sh.root
		e.next = sh.root.next
		sh.root.next.prev = e
		sh.root.next = e
		sh.mu.Unlock()
		t.hits.Add(1)
		return e.payload, memHit
	}
	_, negative := sh.neg[key]
	sh.mu.Unlock()
	if negative {
		t.negHits.Add(1)
		return nil, memNegative
	}
	t.misses.Add(1)
	return nil, memMiss
}

// insert caches payload under key, clearing any negative entry and
// evicting the shard's least-recent entries past its budget. When
// copyPayload is set the bytes are copied first (Put callers own their
// buffer and may reuse it); promotion from a disk read passes false and
// aliases the freshly read slice. Entries too large for a whole shard
// are not cached.
func (t *memTier) insert(key string, payload []byte, copyPayload bool) {
	size := int64(len(key)+len(payload)) + memEntryOverhead
	sh := t.shard(key)
	sh.mu.Lock()
	delete(sh.neg, key)
	if size > t.shardMax {
		sh.mu.Unlock()
		return
	}
	if e, ok := sh.entries[key]; ok {
		// Immutability: the payload is necessarily the same bytes; just
		// refresh recency.
		e.prev.next = e.next
		e.next.prev = e.prev
		e.prev = &sh.root
		e.next = sh.root.next
		sh.root.next.prev = e
		sh.root.next = e
		sh.mu.Unlock()
		return
	}
	if copyPayload {
		payload = append([]byte(nil), payload...)
	}
	e := &memEntry{key: key, payload: payload, size: size}
	e.prev = &sh.root
	e.next = sh.root.next
	sh.root.next.prev = e
	sh.root.next = e
	sh.entries[key] = e
	sh.bytes += size
	var evicted int64
	for sh.bytes > t.shardMax {
		victim := sh.root.prev
		if victim == &sh.root || victim == e {
			break // never evict the entry just inserted
		}
		victim.prev.next = victim.next
		victim.next.prev = victim.prev
		delete(sh.entries, victim.key)
		sh.bytes -= victim.size
		evicted++
	}
	sh.mu.Unlock()
	if evicted > 0 {
		t.evictions.Add(evicted)
	}
}

// invalidate drops key's cached payload (the disk tier evicting the
// entry) and records the key as absent. Not counted as an
// eviction: evictions measure budget pressure, invalidations track the
// disk tier's truth.
func (t *memTier) invalidate(key string) {
	sh := t.shard(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		e.prev.next = e.next
		e.next.prev = e.prev
		delete(sh.entries, key)
		sh.bytes -= e.size
	}
	sh.negAddLocked(key)
	sh.mu.Unlock()
}

// negAdd records key as absent on disk so the next lookup skips the
// filesystem.
func (t *memTier) negAdd(key string) {
	sh := t.shard(key)
	sh.mu.Lock()
	sh.negAddLocked(key)
	sh.mu.Unlock()
}

func (sh *memShard) negAddLocked(key string) {
	if len(sh.neg) >= memNegCap {
		clear(sh.neg)
	}
	sh.neg[key] = struct{}{}
}

// addStats folds the tier's counters and current occupancy into st.
func (t *memTier) addStats(st *Stats) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		st.MemEntries += len(sh.entries)
		st.MemBytes += sh.bytes
		sh.mu.Unlock()
	}
	st.MemEvictions = t.evictions.Load()
	st.MemHits = t.hits.Load()
	st.MemMisses = t.misses.Load()
	st.NegativeHits = t.negHits.Load()
}
