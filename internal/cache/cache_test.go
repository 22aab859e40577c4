package cache

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func small(policy Kind) *Cache {
	return New(Config{SizeBytes: 1024, BlockBytes: 64, Ways: 4, Policy: policy, Classify: true})
}

func TestNewGeometry(t *testing.T) {
	c := New(Config{SizeBytes: 32 * 1024, BlockBytes: 64, Ways: 8})
	if got := c.NumSets(); got != 64 {
		t.Fatalf("NumSets = %d, want 64", got)
	}
	if got := c.NumBlocks(); got != 512 {
		t.Fatalf("NumBlocks = %d, want 512", got)
	}
	if c.BlockAddr(0x1000) != 0x40 {
		t.Fatalf("BlockAddr(0x1000) = %#x, want 0x40", c.BlockAddr(0x1000))
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	cases := []Config{
		{SizeBytes: 0},
		{SizeBytes: 1024, BlockBytes: 48, Ways: 4},     // non power-of-two block
		{SizeBytes: 3 * 1024, BlockBytes: 64, Ways: 8}, // 48 blocks / 8 ways = 6 sets, not pow2
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestMissThenHit(t *testing.T) {
	c := small(LRU)
	if r := c.Access(0x100, false); r.Hit {
		t.Fatal("first access hit")
	}
	if r := c.Access(0x100, false); !r.Hit {
		t.Fatal("second access missed")
	}
	// Same block, different byte offset.
	if r := c.Access(0x13f, false); !r.Hit {
		t.Fatal("same-block access missed")
	}
	st := c.Stats()
	if st.Accesses != 3 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCompulsoryClassification(t *testing.T) {
	c := small(LRU)
	r := c.Access(0, false)
	if r.Class != ClassCompulsory {
		t.Fatalf("first touch class = %v, want compulsory", r.Class)
	}
}

func TestCapacityClassification(t *testing.T) {
	c := small(LRU) // 16 blocks total
	// Stream over 64 distinct blocks twice: the second pass misses are
	// capacity misses (even the FA cache of 16 blocks would miss).
	for pass := 0; pass < 2; pass++ {
		for b := uint64(0); b < 64; b++ {
			r := c.Access(b*64, false)
			if r.Hit {
				t.Fatalf("pass %d block %d unexpectedly hit", pass, b)
			}
			if pass == 1 && r.Class != ClassCapacity {
				t.Fatalf("pass 1 block %d class = %v, want capacity", b, r.Class)
			}
		}
	}
}

func TestConflictClassification(t *testing.T) {
	// 4-way cache with 4 sets: 5 blocks mapping to one set overflow its
	// associativity while total footprint (5) fits in 16 FA blocks.
	c := small(LRU)
	sets := uint64(c.NumSets())
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 5; i++ {
			c.Access(i*sets*64, false) // all map to set 0
		}
	}
	st := c.Stats()
	if st.Conflict == 0 {
		t.Fatalf("no conflict misses recorded: %+v", st)
	}
	if st.Capacity != 0 {
		t.Fatalf("unexpected capacity misses: %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := small(LRU)
	sets := uint64(c.NumSets())
	addr := func(i uint64) uint64 { return i * sets * 64 } // all in set 0
	for i := uint64(0); i < 4; i++ {
		c.Access(addr(i), false)
	}
	c.Access(addr(0), false) // promote 0 to MRU; LRU is now 1
	r := c.Access(addr(4), false)
	if !r.EvictedValid || r.Evicted != c.BlockAddr(addr(1)) {
		t.Fatalf("evicted %#x (valid=%v), want block of addr(1)", r.Evicted, r.EvictedValid)
	}
	if !c.Contains(addr(0)) {
		t.Fatal("recently used block was evicted")
	}
}

func TestLIPInsertsAtLRU(t *testing.T) {
	c := small(LIP)
	sets := uint64(c.NumSets())
	addr := func(i uint64) uint64 { return i * sets * 64 }
	for i := uint64(0); i < 4; i++ {
		c.Access(addr(i), false)
	}
	// Set is full; a new block is inserted at LRU and must be the next
	// victim if not re-referenced.
	c.Access(addr(4), false)
	r := c.Access(addr(5), false)
	if !r.EvictedValid || r.Evicted != c.BlockAddr(addr(4)) {
		t.Fatalf("LIP evicted %#x, want the block just inserted", r.Evicted)
	}
}

func TestLIPHitPromotes(t *testing.T) {
	c := small(LIP)
	sets := uint64(c.NumSets())
	addr := func(i uint64) uint64 { return i * sets * 64 }
	for i := uint64(0); i < 5; i++ {
		c.Access(addr(i), false)
	}
	// addr(4) sits at LRU. Its insertion access and a re-touch form one
	// episode, so break the episode with another block first, then touch
	// addr(4) to promote it to MRU.
	if r := c.Access(addr(0), false); !r.Hit {
		t.Fatal("expected hit on addr(0)")
	}
	if r := c.Access(addr(4), false); !r.Hit {
		t.Fatal("expected hit")
	}
	r := c.Access(addr(6), false)
	if r.Evicted == c.BlockAddr(addr(4)) {
		t.Fatal("LIP evicted a just-promoted block")
	}
}

func TestBIPMostlyInsertsAtLRU(t *testing.T) {
	c := small(BIP)
	sets := uint64(c.NumSets())
	addr := func(i uint64) uint64 { return i * sets * 64 }
	for i := uint64(0); i < 4; i++ {
		c.Access(addr(i), false)
	}
	lruEvictions := 0
	const n = 1000
	for i := uint64(0); i < n; i++ {
		r := c.Access(addr(100+i), false)
		if r.EvictedValid && r.Evicted == c.BlockAddr(addr(100+i-1)) {
			lruEvictions++
		}
	}
	// With epsilon = 1/32, the vast majority of inserts land at LRU and are
	// immediately evicted by the next insert.
	if lruEvictions < n*8/10 {
		t.Fatalf("BIP evicted previous insert only %d/%d times", lruEvictions, n)
	}
	if lruEvictions == n-1 {
		t.Fatal("BIP never inserted at MRU; epsilon path untested")
	}
}

func TestSRRIPVictimSelection(t *testing.T) {
	c := small(SRRIP)
	sets := uint64(c.NumSets())
	addr := func(i uint64) uint64 { return i * sets * 64 }
	for i := uint64(0); i < 4; i++ {
		c.Access(addr(i), false)
	}
	// Re-reference 0..2 so their RRPV drops to 0; 3 stays at rrpvMax-1 and
	// must be chosen over the re-referenced lines.
	for i := uint64(0); i < 3; i++ {
		c.Access(addr(i), false)
	}
	r := c.Access(addr(4), false)
	if !r.EvictedValid || r.Evicted != c.BlockAddr(addr(3)) {
		t.Fatalf("SRRIP evicted %#x, want addr(3) block", r.Evicted)
	}
}

func TestDIPDuelsBetweenLRUAndBIP(t *testing.T) {
	c := New(Config{SizeBytes: 64 * 1024, BlockBytes: 64, Ways: 4, Policy: DIP})
	// A cyclic working set slightly larger than the cache thrashes LRU;
	// DIP should converge towards BIP and beat pure LRU.
	lru := New(Config{SizeBytes: 64 * 1024, BlockBytes: 64, Ways: 4, Policy: LRU})
	blocks := uint64(lru.NumBlocks())
	for pass := 0; pass < 30; pass++ {
		for b := uint64(0); b < blocks+blocks/4; b++ {
			c.Access(b*64, false)
			lru.Access(b*64, false)
		}
	}
	if c.Stats().Misses >= lru.Stats().Misses {
		t.Fatalf("DIP misses (%d) not better than LRU (%d) on thrashing loop",
			c.Stats().Misses, lru.Stats().Misses)
	}
}

func TestDRRIPOnThrashingLoop(t *testing.T) {
	dr := New(Config{SizeBytes: 64 * 1024, BlockBytes: 64, Ways: 4, Policy: DRRIP})
	lru := New(Config{SizeBytes: 64 * 1024, BlockBytes: 64, Ways: 4, Policy: LRU})
	blocks := uint64(lru.NumBlocks())
	for pass := 0; pass < 30; pass++ {
		for b := uint64(0); b < blocks*2; b++ {
			dr.Access(b*64, false)
			lru.Access(b*64, false)
		}
	}
	if dr.Stats().Misses > lru.Stats().Misses {
		t.Fatalf("DRRIP misses (%d) worse than LRU (%d) on 2x thrashing loop",
			dr.Stats().Misses, lru.Stats().Misses)
	}
}

func TestInvalidate(t *testing.T) {
	c := small(LRU)
	c.Access(0x200, false)
	if !c.Invalidate(0x200) {
		t.Fatal("Invalidate returned false for present block")
	}
	if c.Contains(0x200) {
		t.Fatal("block survived invalidation")
	}
	if c.Invalidate(0x200) {
		t.Fatal("Invalidate returned true for absent block")
	}
	if r := c.Access(0x200, false); r.Hit {
		t.Fatal("hit after invalidation")
	}
}

func TestFill(t *testing.T) {
	c := small(LRU)
	c.Fill(0x300)
	if !c.Contains(0x300) {
		t.Fatal("fill did not insert")
	}
	if r := c.Access(0x300, false); !r.Hit {
		t.Fatal("access after fill missed")
	}
	st := c.Stats()
	if st.Fills != 1 || st.Misses != 0 {
		t.Fatalf("stats after fill = %+v", st)
	}
	// Filling a resident block is a no-op.
	c.Fill(0x300)
	if c.Stats().Fills != 1 {
		t.Fatal("duplicate fill counted")
	}
}

func TestOnEvictOnInsertHooks(t *testing.T) {
	c := small(LRU)
	var inserted, evicted []uint64
	c.OnInsert = func(b uint64) { inserted = append(inserted, b) }
	c.OnEvict = func(b uint64) { evicted = append(evicted, b) }
	sets := uint64(c.NumSets())
	for i := uint64(0); i < 5; i++ {
		c.Access(i*sets*64, false) // one set, forces one eviction
	}
	if len(inserted) != 5 {
		t.Fatalf("inserted hook fired %d times, want 5", len(inserted))
	}
	if len(evicted) != 1 {
		t.Fatalf("evicted hook fired %d times, want 1", len(evicted))
	}
	c.InvalidateBlock(inserted[4])
	if len(evicted) != 2 {
		t.Fatal("invalidation did not fire evict hook")
	}
}

func TestBlocksAndValidCount(t *testing.T) {
	c := small(LRU)
	for i := uint64(0); i < 10; i++ {
		c.Access(i*64, false)
	}
	if got := c.ValidCount(); got != 10 {
		t.Fatalf("ValidCount = %d, want 10", got)
	}
	blocks := c.Blocks(nil)
	if len(blocks) != 10 {
		t.Fatalf("Blocks returned %d entries", len(blocks))
	}
	seen := map[uint64]bool{}
	for _, b := range blocks {
		if seen[b] {
			t.Fatalf("duplicate block %#x", b)
		}
		seen[b] = true
		if !c.ContainsBlock(b) {
			t.Fatalf("Blocks reported non-resident block %#x", b)
		}
	}
}

func TestFlushPreservesStats(t *testing.T) {
	c := small(LRU)
	c.Access(0x40, false)
	c.Flush()
	if c.ValidCount() != 0 {
		t.Fatal("flush left valid lines")
	}
	if c.Stats().Accesses != 1 {
		t.Fatal("flush cleared stats")
	}
	// Post-flush access misses but the block has been seen: not compulsory.
	if r := c.Access(0x40, false); r.Hit || r.Class == ClassCompulsory {
		t.Fatalf("post-flush access = %+v", r)
	}
}

func TestKindString(t *testing.T) {
	for _, k := range Kinds() {
		if k.String() == "" || k.String()[0] == 'K' {
			t.Fatalf("bad name for kind %d: %q", int(k), k.String())
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("out-of-range Kind String")
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("empty MissRate not 0")
	}
	s = Stats{Accesses: 10, Misses: 3}
	if s.MissRate() != 0.3 {
		t.Fatalf("MissRate = %v", s.MissRate())
	}
}

// --- property-based tests ---------------------------------------------------

// Property: an access immediately followed by an access to the same address
// always hits, for every policy.
func TestPropAccessThenHit(t *testing.T) {
	for _, k := range Kinds() {
		k := k
		f := func(addrs []uint64) bool {
			c := New(Config{SizeBytes: 2048, BlockBytes: 64, Ways: 4, Policy: k, Seed: 7})
			for _, a := range addrs {
				c.Access(a, false)
				if !c.Access(a, false).Hit {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("policy %v: %v", k, err)
		}
	}
}

// Property: valid line count never exceeds capacity and Contains agrees with
// the demand stream (a resident block set tracked externally).
func TestPropOccupancyBounded(t *testing.T) {
	for _, k := range Kinds() {
		k := k
		f := func(addrs []uint64) bool {
			c := New(Config{SizeBytes: 1024, BlockBytes: 64, Ways: 2, Policy: k, Seed: 3})
			for _, a := range addrs {
				c.Access(a, false)
				if c.ValidCount() > c.NumBlocks() {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("policy %v: %v", k, err)
		}
	}
}

// Property: hits+misses == accesses and 3C classes partition misses.
func TestPropStatsConsistent(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{SizeBytes: 1024, BlockBytes: 64, Ways: 4, Policy: LRU, Classify: true})
		for i := 0; i < int(n)+1; i++ {
			c.Access(uint64(rng.Intn(256))*64, rng.Intn(2) == 0)
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses &&
			s.Compulsory+s.Capacity+s.Conflict == s.Misses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the LRU stack metadata is always a permutation of 0..ways-1.
func TestPropLRUStackIsPermutation(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(Config{SizeBytes: 1024, BlockBytes: 64, Ways: 4, Policy: LRU})
		for _, a := range addrs {
			c.Access(uint64(a)*64, false)
		}
		for si := range c.sets {
			var mask uint
			for _, m := range c.sets[si].meta {
				if m >= uint8(c.cfg.Ways) {
					return false
				}
				mask |= 1 << m
			}
			if mask != (1<<c.cfg.Ways)-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: classification shadow never exceeds its capacity.
func TestPropShadowBounded(t *testing.T) {
	f := func(addrs []uint32) bool {
		sh := newFAShadow(16)
		for _, a := range addrs {
			sh.access(uint64(a))
			if sh.len() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestShadowLRUOrder(t *testing.T) {
	sh := newFAShadow(3)
	sh.access(1)
	sh.access(2)
	sh.access(3)
	sh.access(1) // 1 is MRU, 2 is LRU
	sh.access(4) // evicts 2
	if sh.contains(2) {
		t.Fatal("LRU entry survived")
	}
	for _, b := range []uint64{1, 3, 4} {
		if !sh.contains(b) {
			t.Fatalf("block %d missing", b)
		}
	}
}

func BenchmarkAccessLRU(b *testing.B) {
	c := New(Config{SizeBytes: 32 * 1024, BlockBytes: 64, Ways: 8, Policy: LRU})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 8192)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(4096)) * 64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&8191], false)
	}
}

func BenchmarkAccessDRRIP(b *testing.B) {
	c := New(Config{SizeBytes: 32 * 1024, BlockBytes: 64, Ways: 8, Policy: DRRIP})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 8192)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(4096)) * 64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&8191], false)
	}
}

// TestRecycledStoreBehavesFresh replays one access trace through every
// replacement kind twice: on a cache built before anything of its geometry
// was released, and on a cache built on a store another kind dirtied and
// released. Outcomes, victims and final contents must match access by
// access — recycling must clear validity and restore the metadata New
// hands out, whatever the previous owner's policy left there.
func TestRecycledStoreBehavesFresh(t *testing.T) {
	type outcome struct {
		res    Result
		blocks []uint64
	}
	replay := func(c *Cache) []outcome {
		rng := rand.New(rand.NewSource(3))
		out := make([]outcome, 0, 4000)
		for i := 0; i < 4000; i++ {
			addr := uint64(rng.Intn(600)) * 64
			var o outcome
			switch rng.Intn(10) {
			case 0:
				o.res.Evicted, o.res.EvictedValid = c.Fill(addr)
			case 1:
				o.res.Hit = c.Invalidate(addr)
			default:
				o.res = c.Access(addr, false)
			}
			if i%500 == 0 {
				o.blocks = c.Blocks(nil)
			}
			out = append(out, o)
		}
		return out
	}
	// An odd geometry no other test shares, so "fresh" means fresh.
	cfg := Config{SizeBytes: 3 * 2048, BlockBytes: 64, Ways: 3, DuelLeaderStride: 4}
	for i, kind := range Kinds() {
		cfg.Policy = kind
		fresh := New(cfg)
		if i == 0 && fresh.Recycled() {
			t.Fatal("first cache of the geometry claims a recycled store")
		}
		want := replay(fresh)

		var c *Cache
		for try := 0; ; try++ {
			dirtyCfg := cfg
			dirtyCfg.Policy = Kinds()[(i+3)%len(Kinds())]
			dirty := New(dirtyCfg)
			replay(dirty)
			dirty.Release()
			dirty.Release() // idempotent
			if c = New(cfg); c.Recycled() {
				break
			}
			if try == 20 { // the race detector drops Puts at random
				t.Fatalf("%v: released store never recycled", kind)
			}
		}
		if n := c.ValidCount(); n != 0 {
			t.Fatalf("%v: recycled cache starts with %d valid lines", kind, n)
		}
		got := replay(c)
		for j := range want {
			if got[j].res != want[j].res || !slices.Equal(got[j].blocks, want[j].blocks) {
				t.Fatalf("%v: access %d on a recycled store = %+v, fresh = %+v", kind, j, got[j], want[j])
			}
		}
	}
}

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// NumBlocks returns the total number of blocks (lines).
func (c *Cache) NumBlocks() int { return c.numSets * c.cfg.Ways }

// ValidCount returns the number of valid lines.
func (c *Cache) ValidCount() int {
	n := 0
	for i := range c.sets {
		n += bits.OnesCount64(c.sets[i].valid)
	}
	return n
}
