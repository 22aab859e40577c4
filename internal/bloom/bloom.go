// Package bloom implements the partial-address bloom filter SLICC uses as an
// approximate cache signature (Section 4.2.3 of the paper, after Peir et al.
// [23]). Each core maintains one filter summarizing its L1-I contents; remote
// cache segment searches probe the filter instead of the cache, avoiding
// contention with the core's own fetches.
//
// The filter must support evictions, so it is backed by per-bit saturating
// reference counts (a counting bloom filter): inserting a block increments
// the counters its hashes select, evicting decrements them, and a block is
// reported present when all its counters are non-zero.
//
// When the filter's index is wider than the cache's set index, aliasing can
// only happen between blocks of the same set, which is what makes the small
// 2K-bit configuration in Figure 9 accurate to >99%.
package bloom

import "fmt"

// Config sizes a filter.
type Config struct {
	// Bits is the number of filter buckets. Must be a power of two.
	// The paper's Figure 9 sweeps 512..8192; 2048 is the default used in
	// the rest of the evaluation.
	Bits int
	// Hashes is the number of index functions (default 2).
	Hashes int
	// CounterBits caps each bucket's reference count (default 8, i.e. a
	// saturating 8-bit counter; saturation makes deletes conservative).
	CounterBits int
}

func (c Config) withDefaults() Config {
	if c.Bits == 0 {
		c.Bits = 2048
	}
	if c.Hashes == 0 {
		c.Hashes = 2
	}
	if c.CounterBits == 0 {
		c.CounterBits = 8
	}
	return c
}

// Filter is a counting partial-address bloom filter over cache block
// addresses.
type Filter struct {
	cfg     Config
	mask    uint64
	max     uint32
	counts  []uint32
	entries int
}

// New builds a filter; it panics if Bits is not a power of two (static
// misconfiguration).
func New(cfg Config) *Filter {
	cfg = cfg.withDefaults()
	if cfg.Bits <= 0 || cfg.Bits&(cfg.Bits-1) != 0 {
		panic(fmt.Sprintf("bloom: Bits %d must be a positive power of two", cfg.Bits))
	}
	if cfg.Hashes < 1 {
		panic("bloom: need at least one hash")
	}
	return &Filter{
		cfg:    cfg,
		mask:   uint64(cfg.Bits - 1),
		max:    uint32(1)<<cfg.CounterBits - 1,
		counts: make([]uint32, cfg.Bits),
	}
}

// Config returns the filter's configuration with defaults applied.
func (f *Filter) Config() Config { return f.cfg }

// index computes the i-th bucket for a block address. The hash mixes the
// block address with a per-function odd multiplier (Knuth multiplicative
// hashing); bucket 0 uses the low "partial address" bits directly so that a
// filter wider than the cache set index preserves the same-set aliasing
// property the paper relies on.
func (f *Filter) index(block uint64, i int) uint64 {
	if i == 0 {
		return block & f.mask
	}
	h := block * (0x9e3779b97f4a7c15 + uint64(i)*2)
	h ^= h >> 29
	return h & f.mask
}

// Insert records a block.
func (f *Filter) Insert(block uint64) {
	f.entries++
	for i := 0; i < f.cfg.Hashes; i++ {
		idx := f.index(block, i)
		if f.counts[idx] < f.max {
			f.counts[idx]++
		}
	}
}

// Remove erases one reference to a block. Removing a block that was never
// inserted can underflow other blocks' evidence, so callers must pair every
// Remove with a prior Insert; the cache's OnInsert/OnEvict hooks guarantee
// this. Saturated counters are left untouched (conservative: may yield false
// positives, never false negatives for resident blocks).
func (f *Filter) Remove(block uint64) {
	if f.entries > 0 {
		f.entries--
	}
	for i := 0; i < f.cfg.Hashes; i++ {
		idx := f.index(block, i)
		if f.counts[idx] > 0 && f.counts[idx] < f.max {
			f.counts[idx]--
		}
	}
}

// Contains reports whether the block may be present. False positives are
// possible; false negatives are not (for properly paired Insert/Remove).
func (f *Filter) Contains(block uint64) bool {
	for i := 0; i < f.cfg.Hashes; i++ {
		if f.counts[f.index(block, i)] == 0 {
			return false
		}
	}
	return true
}

// Entries returns the net number of inserted blocks.
func (f *Filter) Entries() int { return f.entries }

// Reset clears the filter.
func (f *Filter) Reset() {
	for i := range f.counts {
		f.counts[i] = 0
	}
	f.entries = 0
}

// AccuracyTracker measures how often a filter agrees with ground truth, the
// metric of the paper's Figure 9 ("an access is accurate if the bloom filter
// and the cache agree on whether this is a hit or a miss").
type AccuracyTracker struct {
	Checks uint64
	Agree  uint64
}

// Record notes one comparison.
func (a *AccuracyTracker) Record(filterSaysHit, cacheHit bool) {
	a.Checks++
	if filterSaysHit == cacheHit {
		a.Agree++
	}
}

// Accuracy returns the agreement ratio in [0,1]; 1 for an untouched tracker.
func (a *AccuracyTracker) Accuracy() float64 {
	if a.Checks == 0 {
		return 1
	}
	return float64(a.Agree) / float64(a.Checks)
}
