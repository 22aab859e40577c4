// Package mem models the levels below the private L1s: a shared, banked
// NUCA L2 (Table 2: 1MB per core, 16-way, 16 banks, 16-cycle hit latency)
// and a DDR3-like main memory modeled as a flat access latency (Table 2:
// 42ns, which at 2.5GHz is ~105 core cycles).
//
// The L2 is a real cache model (it filters misses and produces realistic
// L2-hit vs memory-hit latency mixes), banked by block address; NUCA-ness is
// charged as NoC hops from the requesting core to the bank's home node.
package mem

import (
	"slicc/internal/cache"
	"slicc/internal/noc"
)

// Config describes the shared memory hierarchy.
type Config struct {
	// L2SizeBytes is the aggregate shared L2 capacity (default 16MB: 1MB
	// per core on the 16-core baseline).
	L2SizeBytes int
	// L2Ways is the L2 associativity (default 16).
	L2Ways int
	// BlockBytes is the line size shared with the L1s (default 64).
	BlockBytes int
	// L2HitLatency is the bank access latency in cycles (default 16).
	L2HitLatency int
	// Banks is the number of L2 banks (default 16, one per node).
	Banks int
	// MemLatency is the flat main-memory latency in cycles (default 105,
	// i.e. 42ns at 2.5GHz).
	MemLatency int
}

func (c Config) withDefaults() Config {
	if c.L2SizeBytes == 0 {
		c.L2SizeBytes = 16 << 20
	}
	if c.L2Ways == 0 {
		c.L2Ways = 16
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 64
	}
	if c.L2HitLatency == 0 {
		c.L2HitLatency = 16
	}
	if c.Banks == 0 {
		c.Banks = 16
	}
	if c.MemLatency == 0 {
		c.MemLatency = 105
	}
	return c
}

// Stats aggregates hierarchy activity.
type Stats struct {
	L2Accesses uint64
	L2Hits     uint64
	L2Misses   uint64
	MemReads   uint64
}

// Hierarchy is the shared L2 + memory below all cores.
type Hierarchy struct {
	cfg   Config
	l2    *cache.Cache
	torus *noc.Torus
	stats Stats
}

// New builds the hierarchy. The torus is used only for NUCA distance; it may
// be shared with the rest of the machine.
func New(cfg Config, torus *noc.Torus) *Hierarchy {
	cfg = cfg.withDefaults()
	h := &Hierarchy{
		cfg:   cfg,
		torus: torus,
		l2: cache.New(cache.Config{
			SizeBytes:  cfg.L2SizeBytes,
			BlockBytes: cfg.BlockBytes,
			Ways:       cfg.L2Ways,
			Policy:     cache.LRU,
			HitLatency: cfg.L2HitLatency,
		}),
	}
	return h
}

// Config returns the configuration with defaults applied.
func (h *Hierarchy) Config() Config { return h.cfg }

// bankOf spreads blocks across banks; banks are homed on nodes round-robin.
func (h *Hierarchy) bankOf(block uint64) int {
	return int(block % uint64(h.cfg.Banks))
}

// HomeNode returns the node a block's bank lives on.
func (h *Hierarchy) HomeNode(block uint64) int {
	if h.torus == nil {
		return 0
	}
	return h.bankOf(block) % h.torus.Nodes()
}

// FetchLatency serves an L1 miss for the block containing addr issued by
// core. It returns the total added latency: NoC round trip to the home bank
// plus L2 hit latency, plus memory latency on an L2 miss. The L2 state is
// updated (miss fills).
func (h *Hierarchy) FetchLatency(core int, addr uint64) int {
	h.stats.L2Accesses++
	lat := 0
	if h.torus != nil {
		block := addr / uint64(h.cfg.BlockBytes)
		home := h.HomeNode(block)
		lat += h.torus.Latency(core, home) * 2 // request + response
	}
	res := h.l2.Access(addr, false)
	lat += h.cfg.L2HitLatency
	if res.Hit {
		h.stats.L2Hits++
		return lat
	}
	h.stats.L2Misses++
	h.stats.MemReads++
	return lat + h.cfg.MemLatency
}

// Contains probes the L2 without side effects.
func (h *Hierarchy) Contains(addr uint64) bool { return h.l2.Contains(addr) }

// Stats returns a copy of the hierarchy counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// L2Stats exposes the underlying L2 cache statistics.
func (h *Hierarchy) L2Stats() cache.Stats { return h.l2.Stats() }

// Release returns the L2's backing store for reuse (see cache.Release).
// Only Config, Stats and L2Stats may be called afterwards.
func (h *Hierarchy) Release() { h.l2.Release() }

// Recycled reports whether the L2 was built on a released store.
func (h *Hierarchy) Recycled() bool { return h.l2.Recycled() }

// ResetStats zeroes counters, preserving contents.
func (h *Hierarchy) ResetStats() {
	h.stats = Stats{}
	h.l2.ResetStats()
}
