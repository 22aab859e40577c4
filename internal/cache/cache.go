// Package cache implements the set-associative cache models used throughout
// the SLICC reproduction: private L1 instruction and data caches with a
// selectable replacement policy (LRU and the insertion/re-reference policies
// the paper evaluates in Figure 2), optional compulsory/capacity/conflict
// miss classification (Figure 1), and the probe/invalidate hooks the
// simulator's coherence directory and SLICC's signature search require.
//
// Caches operate on byte addresses; internally everything is tracked at
// cache-block granularity. All state is deterministic: policies that need
// randomness (BIP, BRRIP) draw from a seeded source in Config.
package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
)

// Kind selects a replacement policy.
type Kind int

// Replacement policies evaluated by the paper (Section 2.1.2, Figure 2).
const (
	LRU Kind = iota
	LIP
	BIP
	DIP
	SRRIP
	BRRIP
	DRRIP
)

var kindNames = [...]string{"LRU", "LIP", "BIP", "DIP", "SRRIP", "BRRIP", "DRRIP"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Kinds returns all supported replacement policy kinds in Figure 2 order.
func Kinds() []Kind {
	return []Kind{LRU, LIP, BIP, DIP, SRRIP, BRRIP, DRRIP}
}

// Config describes a cache instance.
type Config struct {
	// SizeBytes is the total capacity. Must be a multiple of
	// BlockBytes*Ways and yield a power-of-two set count.
	SizeBytes int
	// BlockBytes is the cache block (line) size. Must be a power of two.
	BlockBytes int
	// Ways is the associativity.
	Ways int
	// Policy is the replacement policy.
	Policy Kind
	// HitLatency is the load-to-use latency in cycles.
	HitLatency int
	// Classify enables compulsory/capacity/conflict classification via an
	// infinite-cache filter and a fully-associative LRU shadow of the same
	// capacity (Hill & Smith). It costs memory proportional to the
	// footprint, so it is off by default.
	Classify bool
	// BIPEpsilonLog2 is log2 of the inverse probability that BIP/BRRIP
	// insert a block with high priority (default 5, i.e. 1/32).
	BIPEpsilonLog2 int
	// DuelLeaderStride spaces the set-dueling leader sets for DIP/DRRIP
	// (default 32: set 0, 32, 64... lead policy A; set 1, 33, ... policy B).
	DuelLeaderStride int
	// PSELBits sizes the set-dueling policy selector counter (default 10).
	PSELBits int
	// Seed seeds the policy randomness.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.BlockBytes == 0 {
		c.BlockBytes = 64
	}
	if c.Ways == 0 {
		c.Ways = 8
	}
	if c.HitLatency == 0 {
		c.HitLatency = 3
	}
	if c.BIPEpsilonLog2 == 0 {
		c.BIPEpsilonLog2 = 5
	}
	if c.DuelLeaderStride == 0 {
		c.DuelLeaderStride = 32
	}
	if c.PSELBits == 0 {
		c.PSELBits = 10
	}
	return c
}

// MissClass classifies a miss per Hill & Smith's 3C model.
type MissClass int

// Miss classes. ClassNone marks hits.
const (
	ClassNone MissClass = iota
	ClassCompulsory
	ClassCapacity
	ClassConflict
)

func (m MissClass) String() string {
	switch m {
	case ClassNone:
		return "none"
	case ClassCompulsory:
		return "compulsory"
	case ClassCapacity:
		return "capacity"
	case ClassConflict:
		return "conflict"
	}
	return fmt.Sprintf("MissClass(%d)", int(m))
}

// Stats accumulates access outcomes.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Compulsory uint64
	Capacity   uint64
	Conflict   uint64
	Evictions  uint64
	Fills      uint64 // prefetch fills (not demand misses)
	Invalidate uint64
}

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Result reports the outcome of a single access.
type Result struct {
	Hit bool
	// Class is the 3C class of a miss (ClassNone on hits, or when
	// classification is disabled it is ClassCapacity for non-first-touch
	// misses as a cheap approximation).
	Class MissClass
	// Evicted is the block address (not byte address) of the victim,
	// valid only when EvictedValid is true.
	Evicted      uint64
	EvictedValid bool
}

// set is one associative set in structure-of-arrays layout: the tags of
// its ways are a contiguous uint64 run (an 8-way set's tag scan touches
// exactly one host cache line), validity is a bitmask in the set header,
// and the replacement metadata (recency position for the LRU family, RRPV
// for the RRIP family) lives in a parallel byte run touched only by
// replacement updates. The layout matters because the simulated machine's
// caches are probed a couple of times per simulated instruction and are
// far bigger than the host's upper cache levels: the probe's memory
// traffic is the hot path. The valid bitmask caps associativity at 64
// ways (enforced by New).
type set struct {
	idx   int
	tags  []uint64
	meta  []uint8
	valid uint64 // bit w = way w holds a valid line
	// mru is a lookup hint: the way of the set's most recent hit or
	// insert. It short-circuits the way scan for repeat references and is
	// pure acceleration — replacement state never reads it.
	mru uint8
}

func (s *set) isValid(w int) bool { return s.valid>>uint(w)&1 != 0 }
func (s *set) ways() int          { return len(s.tags) }

// Cache is a set-associative cache model.
type Cache struct {
	cfg        Config
	sets       []set    // store.sets
	store      *storage // the backing store, recycled through Release
	recycled   bool     // store served an earlier cache
	numSets    int
	setMask    uint64
	blockShift uint
	policy     policy
	rng        *rand.Rand // policy randomness, created on first draw
	stats      Stats

	// lastBlock tracks the most recently accessed block: consecutive
	// accesses to one block (sequential instruction fetch through a line,
	// a data run through a row) form one *touch episode*, and replacement
	// state updates once per episode. This models the line/fill buffer in
	// front of a real L1 and is what lets insertion-position policies
	// (LIP/BIP/RRIP) behave as designed: without it, the second fetch of
	// every 16-instruction line would instantly promote it to MRU and no
	// policy could differ from LRU. For true LRU the episode rule is a
	// no-op (re-promoting the same block is idempotent).
	lastBlock uint64
	haveLast  bool

	// Classification shadows (nil unless cfg.Classify).
	seen   *u64set
	shadow *faShadow

	// OnEvict, if set, is invoked with the block address of every victim
	// (demand or invalidation). SLICC uses it to keep bloom signatures in
	// sync with cache contents.
	OnEvict func(block uint64)
	// OnInsert mirrors OnEvict for newly inserted blocks.
	OnInsert func(block uint64)
}

// New builds a cache. It panics on geometrically impossible configurations;
// configurations are static inputs, so this is a programming error, not a
// runtime condition.
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	if cfg.SizeBytes <= 0 {
		panic("cache: SizeBytes must be positive")
	}
	if cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		panic("cache: BlockBytes must be a power of two")
	}
	lineCount := cfg.SizeBytes / cfg.BlockBytes
	if lineCount%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache: %d blocks not divisible by %d ways", lineCount, cfg.Ways))
	}
	if cfg.Ways > 64 {
		panic(fmt.Sprintf("cache: %d ways exceeds the model's 64-way limit", cfg.Ways))
	}
	numSets := lineCount / cfg.Ways
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d must be a power of two", numSets))
	}
	st := getStorage(numSets, cfg.Ways)
	c := &Cache{
		cfg:      cfg,
		sets:     st.sets,
		store:    st,
		recycled: st.recycled,
		numSets:  numSets,
		setMask:  uint64(numSets - 1),
	}
	c.blockShift = log2(uint64(cfg.BlockBytes))
	c.policy = newPolicy(c)
	if cfg.Classify {
		c.seen = newU64Set()
		c.shadow = newFAShadow(lineCount)
	}
	return c
}

// storage is one cache's backing store: the set headers and the tag and
// metadata arrays they slice. A default machine's L2 alone is 3.4MB of it,
// allocated, zeroed and index-initialized for a simulation that may touch
// a sliver, so released stores are recycled by geometry.
type storage struct {
	sets []set
	meta []uint8 // all sets' metadata, contiguous
	ways int
	// recycled marks a store that has served an earlier cache.
	recycled bool
}

// geometry keys the storage pools.
type geometry struct{ sets, ways int }

// storagePools maps geometry -> *sync.Pool of *storage.
var storagePools sync.Map

func poolFor(g geometry) *sync.Pool {
	if p, ok := storagePools.Load(g); ok {
		return p.(*sync.Pool)
	}
	p, _ := storagePools.LoadOrStore(g, new(sync.Pool))
	return p.(*sync.Pool)
}

// getStorage returns an empty store of the given geometry — every way
// invalid, every set's metadata the identity permutation — recycled when
// the pool has one. A recycled store keeps its stale tags: nothing reads
// the tag of an invalid way.
func getStorage(numSets, ways int) *storage {
	st, _ := poolFor(geometry{numSets, ways}).Get().(*storage)
	if st == nil {
		st = &storage{sets: make([]set, numSets), meta: make([]uint8, numSets*ways), ways: ways}
		tags := make([]uint64, numSets*ways)
		for i := range st.sets {
			st.sets[i].idx = i
			st.sets[i].tags = tags[i*ways : (i+1)*ways : (i+1)*ways]
			st.sets[i].meta = st.meta[i*ways : (i+1)*ways : (i+1)*ways]
		}
	} else {
		for i := range st.sets {
			st.sets[i].valid = 0
			st.sets[i].mru = 0
		}
	}
	// The LRU-family policies maintain meta as a recency permutation of
	// 0..Ways-1 per set; seed it (one set, then doubling block copies) so
	// promote() rotations preserve the invariant.
	meta := st.meta
	for w := 0; w < ways; w++ {
		meta[w] = uint8(w)
	}
	for n := ways; n < len(meta); n *= 2 {
		copy(meta[n:], meta[:n])
	}
	return st
}

// Release returns the cache's backing store for reuse by a later New of
// the same geometry. The cache must not be accessed, probed or flushed
// afterwards (Stats and Config stay readable); a cache that is never
// released is simply garbage collected.
func (c *Cache) Release() {
	st := c.store
	if st == nil {
		return
	}
	c.store, c.sets = nil, nil
	st.recycled = true // for the next cache built on it
	poolFor(geometry{len(st.sets), st.ways}).Put(st)
}

// Recycled reports whether New built the cache on a released store.
func (c *Cache) Recycled() bool { return c.recycled }

// draw returns the policy randomness source, seeding it from cfg.Seed on
// first use: only the bimodal policies (BIP/BRRIP and the duels over them)
// ever draw, and a seeded source is 4.9KB a cache.
func (c *Cache) draw() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.cfg.Seed))
	}
	return c.rng
}

// log2 returns floor(log2(v)); callers pass power-of-two geometry values.
func log2(v uint64) uint {
	if v <= 1 {
		return 0
	}
	return uint(bits.Len64(v) - 1)
}

// Config returns the configuration the cache was built with (with defaults
// applied).
func (c *Cache) Config() Config { return c.cfg }

// HitLatency returns the configured hit latency in cycles.
func (c *Cache) HitLatency() int { return c.cfg.HitLatency }

// BlockAddr converts a byte address to its block address.
func (c *Cache) BlockAddr(addr uint64) uint64 { return addr >> c.blockShift }

func (c *Cache) setIndex(block uint64) uint64 { return block & c.setMask }

// Access performs a demand access for the byte address. The write flag only
// matters to callers (the cache itself is a presence model); it is accepted
// here so data-cache call sites read naturally.
func (c *Cache) Access(addr uint64, write bool) Result {
	_ = write
	block := c.BlockAddr(addr)
	c.stats.Accesses++

	// Same touch episode: the last access left this block resident (a hit
	// found it, a miss inserted it), and between two *consecutive* accesses
	// to one block nothing can have removed it — any other Access would
	// have retargeted lastBlock, and the two removal paths that bypass
	// Access (Fill evicting it, InvalidateBlock) clear haveLast. The
	// episode rule already skips the replacement update here, so the whole
	// way scan can be skipped too; this is the common case for sequential
	// fetch through a line and for data runs through a row.
	if c.haveLast && c.lastBlock == block {
		c.stats.Hits++
		if c.shadow != nil {
			c.shadow.access(block)
		}
		return Result{Hit: true}
	}

	s := &c.sets[c.setIndex(block)]
	if way := findWay(s, block); way >= 0 {
		c.stats.Hits++
		if !c.haveLast || c.lastBlock != block {
			c.policy.onHit(s, way)
		}
		c.lastBlock, c.haveLast = block, true
		if c.shadow != nil {
			c.shadow.access(block)
		}
		return Result{Hit: true}
	}
	c.lastBlock, c.haveLast = block, true

	c.stats.Misses++
	class := c.classify(block)
	res := Result{Class: class}
	res.Evicted, res.EvictedValid = c.insert(s, block, false)
	return res
}

// CountHits credits n demand accesses that hit, for a caller that knows the
// outcome without consulting the model: repeat accesses to the block the
// previous Access touched, with no Fill or invalidation of it since. Such
// an access is the same-episode hit above — no replacement update, the
// classification shadow's MRU block re-promoted in place — so the counters
// are its whole effect, and Stats reads as if each had gone through Access.
func (c *Cache) CountHits(n uint64) {
	c.stats.Accesses += n
	c.stats.Hits += n
}

// classify assigns the 3C class for a missing block and updates shadows.
func (c *Cache) classify(block uint64) MissClass {
	if c.seen == nil {
		return ClassCapacity
	}
	var class MissClass
	if c.seen.add(block) {
		class = ClassCompulsory
	} else if c.shadow.contains(block) {
		// The fully-associative cache of equal capacity would have hit:
		// the miss is due to limited associativity.
		class = ClassConflict
	} else {
		class = ClassCapacity
	}
	c.shadow.access(block)
	switch class {
	case ClassCompulsory:
		c.stats.Compulsory++
	case ClassCapacity:
		c.stats.Capacity++
	case ClassConflict:
		c.stats.Conflict++
	}
	return class
}

// insert places block into set s, evicting the policy's victim if the set is
// full. It returns the victim block address if a valid line was evicted.
// lowPri inserts at the policy's lowest priority (prefetch fills).
func (c *Cache) insert(s *set, block uint64, lowPri bool) (evicted uint64, evictedValid bool) {
	way := c.policy.victim(s)
	if s.isValid(way) {
		evicted, evictedValid = s.tags[way], true
		c.stats.Evictions++
		if c.haveLast && c.lastBlock == evicted {
			// A Fill can evict the episode block behind Access's back; the
			// same-block fast path must not report it resident afterwards.
			c.haveLast = false
		}
		if c.OnEvict != nil {
			c.OnEvict(evicted)
		}
	}
	s.tags[way] = block
	s.valid |= 1 << uint(way)
	s.mru = uint8(way)
	if lowPri {
		c.policy.onFill(s, way)
	} else {
		c.policy.onInsert(s, way)
	}
	if c.OnInsert != nil {
		c.OnInsert(block)
	}
	return evicted, evictedValid
}

// Fill inserts the block containing addr without counting a demand access.
// Prefetchers use it; fills are counted in Stats.Fills and inserted at the
// replacement policy's lowest priority, so an unreferenced prefetch is the
// next victim. It is a no-op if the block is already present (its
// replacement state is left untouched, so useless prefetch traffic cannot
// promote a block).
func (c *Cache) Fill(addr uint64) (evicted uint64, evictedValid bool) {
	block := c.BlockAddr(addr)
	s := &c.sets[c.setIndex(block)]
	if findWay(s, block) >= 0 {
		return 0, false
	}
	c.stats.Fills++
	if c.shadow != nil {
		c.seen.add(block)
		c.shadow.access(block)
	}
	return c.insert(s, block, true)
}

// Contains probes for the block containing addr with no side effects on
// replacement state or statistics.
func (c *Cache) Contains(addr uint64) bool {
	block := c.BlockAddr(addr)
	return findWay(&c.sets[c.setIndex(block)], block) >= 0
}

// ContainsBlock probes by block address with no side effects.
func (c *Cache) ContainsBlock(block uint64) bool {
	return findWay(&c.sets[c.setIndex(block)], block) >= 0
}

// Invalidate removes the block containing addr, returning whether it was
// present. Coherence invalidations land here.
func (c *Cache) Invalidate(addr uint64) bool {
	return c.InvalidateBlock(c.BlockAddr(addr))
}

// InvalidateBlock removes a block by block address.
func (c *Cache) InvalidateBlock(block uint64) bool {
	s := &c.sets[c.setIndex(block)]
	way := findWay(s, block)
	if way < 0 {
		return false
	}
	s.valid &^= 1 << uint(way)
	if c.haveLast && c.lastBlock == block {
		c.haveLast = false
	}
	c.stats.Invalidate++
	if c.OnEvict != nil {
		c.OnEvict(block)
	}
	return true
}

// Blocks appends the block addresses of all valid lines to dst and returns
// it. The order is set-major and not meaningful.
func (c *Cache) Blocks(dst []uint64) []uint64 {
	for i := range c.sets {
		s := &c.sets[i]
		for w, tag := range s.tags {
			if s.isValid(w) {
				dst = append(dst, tag)
			}
		}
	}
	return dst
}

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes counters but keeps contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Flush invalidates every line and resets policy metadata. Statistics and
// classification shadows are preserved (a flush does not unsee blocks).
func (c *Cache) Flush() {
	for i := range c.sets {
		s := &c.sets[i]
		s.valid = 0
		for w := range s.meta {
			s.tags[w] = 0
			s.meta[w] = uint8(w)
		}
	}
	c.haveLast = false
}

func findWay(s *set, block uint64) int {
	if w := int(s.mru); w < len(s.tags) && s.tags[w] == block && s.isValid(w) {
		return w
	}
	for w, tag := range s.tags {
		if tag == block && s.isValid(w) {
			s.mru = uint8(w)
			return w
		}
	}
	return -1
}
