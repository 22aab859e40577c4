// Package tlb models instruction and data translation lookaside buffers.
// The paper reports SLICC's side effects on TLBs (Section 5.5: D-TLB misses
// rise ~8-11% with migration, I-TLB misses stay within ±0.5%), so the
// simulator carries a small fully-associative TLB per core and reference
// stream to reproduce that measurement.
//
// The model is a presence model: translations are not computed, only the
// reach and replacement behaviour matter.
package tlb

import "fmt"

// Config describes a TLB.
type Config struct {
	// Entries is the number of translations held (default 64).
	Entries int
	// PageBytes is the page size (default 4096; must be a power of two).
	PageBytes int
	// MissLatency is the page-walk cost in cycles (default 30).
	MissLatency int
}

func (c Config) withDefaults() Config {
	if c.Entries == 0 {
		c.Entries = 64
	}
	if c.PageBytes == 0 {
		c.PageBytes = 4096
	}
	if c.MissLatency == 0 {
		c.MissLatency = 30
	}
	return c
}

// Stats counts TLB activity.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses/accesses (0 for an untouched TLB).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// TLB is a fully-associative, true-LRU translation buffer.
type TLB struct {
	cfg       Config
	pageShift uint
	nodes     map[uint64]*node
	head      *node // MRU
	tail      *node // LRU
	stats     Stats
}

type node struct {
	page       uint64
	prev, next *node
}

// New builds a TLB; it panics on a non-power-of-two page size.
func New(cfg Config) *TLB {
	cfg = cfg.withDefaults()
	if cfg.PageBytes&(cfg.PageBytes-1) != 0 {
		panic(fmt.Sprintf("tlb: page size %d not a power of two", cfg.PageBytes))
	}
	if cfg.Entries <= 0 {
		panic("tlb: need at least one entry")
	}
	shift := uint(0)
	for 1<<shift < cfg.PageBytes {
		shift++
	}
	return &TLB{
		cfg:       cfg,
		pageShift: shift,
		nodes:     make(map[uint64]*node, cfg.Entries+1),
	}
}

// Config returns the configuration with defaults applied.
func (t *TLB) Config() Config { return t.cfg }

// Page returns the page number of a byte address.
func (t *TLB) Page(addr uint64) uint64 { return addr >> t.pageShift }

// Access translates addr, returning the added latency (0 on a hit,
// MissLatency on a page walk).
func (t *TLB) Access(addr uint64) int {
	t.stats.Accesses++
	page := t.Page(addr)
	if n, ok := t.nodes[page]; ok {
		t.unlink(n)
		t.pushFront(n)
		return 0
	}
	t.stats.Misses++
	n := &node{page: page}
	t.nodes[page] = n
	t.pushFront(n)
	if len(t.nodes) > t.cfg.Entries {
		lru := t.tail
		t.unlink(lru)
		delete(t.nodes, lru.page)
	}
	return t.cfg.MissLatency
}

// CountHits credits n translations that hit, for a caller that knows the
// outcome without consulting the model: repeat accesses to the page the
// previous Access touched. That page is already the MRU entry, so the
// counter is the whole effect of each.
func (t *TLB) CountHits(n uint64) { t.stats.Accesses += n }

// Contains probes for a page without side effects.
func (t *TLB) Contains(addr uint64) bool {
	_, ok := t.nodes[t.Page(addr)]
	return ok
}

// Len returns the number of cached translations.
func (t *TLB) Len() int { return len(t.nodes) }

// Flush empties the TLB (context-switch cost model hook). Statistics are
// preserved.
func (t *TLB) Flush() {
	t.nodes = make(map[uint64]*node, t.cfg.Entries+1)
	t.head, t.tail = nil, nil
}

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

func (t *TLB) pushFront(n *node) {
	n.prev = nil
	n.next = t.head
	if t.head != nil {
		t.head.prev = n
	}
	t.head = n
	if t.tail == nil {
		t.tail = n
	}
}

func (t *TLB) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		t.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		t.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
