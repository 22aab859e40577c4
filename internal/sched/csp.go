package sched

import "slicc/internal/sim"

// CSP approximates Computation Spreading (Chakraborty, Wells & Sohi,
// ASPLOS 2006), the other migration-based system the paper compares SLICC
// against in Section 6: threads migrate to a small set of *service cores*
// dedicated to common/system code, and return to their home cores for
// user-level code. Unlike SLICC, fragmentation stops at the user/system
// boundary — user code still thrashes the home core's cache.
//
// The synthetic workloads mark their shared DB-engine/OS segments; CSP is
// configured with those address ranges.
type CSP struct {
	// SystemRanges are [lo,hi) block-address ranges of system/common code.
	SystemRanges []BlockRange
	// ServiceCores is how many cores are dedicated to system code
	// (default: a quarter of the machine, at least 1).
	ServiceCores int
	// MinStay hysteresis: instructions to stay after a domain switch
	// before migrating again (default 200), preventing ping-ponging on
	// short excursions.
	MinStay uint64

	m        *sim.Machine
	pending  []*sim.ThreadState
	next     int
	queues   [][]*sim.ThreadState
	service  []bool // per core: is it a service core
	home     map[int]int
	lastMove map[int]uint64 // thread -> Instr at last migration
	rr       int
}

// BlockRange is a half-open range of block addresses.
type BlockRange struct{ Lo, Hi uint64 }

// NewCSP builds a CSP policy for the given system-code ranges.
func NewCSP(ranges []BlockRange) *CSP {
	return &CSP{SystemRanges: ranges}
}

// Name implements sim.Policy.
func (c *CSP) Name() string { return "CSP" }

// Attach implements sim.Policy.
func (c *CSP) Attach(m *sim.Machine, threads []*sim.ThreadState) {
	if c.ServiceCores == 0 {
		c.ServiceCores = m.Cores() / 4
		if c.ServiceCores < 1 {
			c.ServiceCores = 1
		}
	}
	if c.MinStay == 0 {
		c.MinStay = 200
	}
	c.m = m
	c.pending = threads
	c.queues = make([][]*sim.ThreadState, m.Cores())
	c.service = make([]bool, m.Cores())
	for i := 0; i < c.ServiceCores; i++ {
		c.service[m.Cores()-1-i] = true // dedicate the last cores
	}
	c.home = make(map[int]int)
	c.lastMove = make(map[int]uint64)
}

// isSystem classifies a block address.
func (c *CSP) isSystem(block uint64) bool {
	for _, r := range c.SystemRanges {
		if block >= r.Lo && block < r.Hi {
			return true
		}
	}
	return false
}

// NextThread implements sim.Policy: queued (returning/visiting) threads
// first; new transactions start only on user cores (their home).
func (c *CSP) NextThread(core int) *sim.ThreadState {
	if q := c.queues[core]; len(q) > 0 {
		t := q[0]
		c.queues[core] = q[1:]
		return t
	}
	if c.service[core] {
		return nil
	}
	if c.next < len(c.pending) {
		t := c.pending[c.next]
		c.next++
		c.home[t.ID] = core
		return t
	}
	return nil
}

// OnInstr implements sim.Policy: migrate to a service core when entering
// system code, back home when leaving it. A thread in the wrong domain
// moves at whichever instruction its MinStay runs out or a service queue
// drains — any instruction, decided on other cores' queue depths — so CSP
// implements no sim.QuietRunObserver and is stepped per instruction.
func (c *CSP) OnInstr(core int, t *sim.ThreadState, f sim.Fetch) int {
	if t.Instr-c.lastMove[t.ID] < c.MinStay {
		return -1
	}
	sys := c.isSystem(f.Block)
	if sys && !c.service[core] {
		// Round-robin over service cores with shallow queues.
		for tries := 0; tries < c.ServiceCores; tries++ {
			cand := c.m.Cores() - 1 - (c.rr+tries)%c.ServiceCores
			if len(c.queues[cand]) < 2 {
				c.rr++
				c.lastMove[t.ID] = t.Instr
				return cand
			}
		}
		return -1
	}
	if !sys && c.service[core] {
		c.lastMove[t.ID] = t.Instr
		return c.home[t.ID]
	}
	return -1
}

// OnThreadFinish implements sim.Policy.
func (c *CSP) OnThreadFinish(core int, t *sim.ThreadState) {
	delete(c.home, t.ID)
	delete(c.lastMove, t.ID)
}

// EnqueueMigrated implements the machine's migration delivery.
func (c *CSP) EnqueueMigrated(core int, t *sim.ThreadState) {
	c.queues[core] = append(c.queues[core], t)
}
