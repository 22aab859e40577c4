// Package slicc implements the paper's contribution: SLICC, a hardware
// thread scheduling and migration policy that self-assembles L1-I cache
// collectives. A per-core agent (Section 4.2) watches the local cache with
// three structures:
//
//   - MC, a saturating miss counter detecting when the cache has filled
//     with a code segment (Q.1, "is the cache full?");
//   - MSV, a miss shift-vector over the last MSVWindow accesses measuring
//     miss dilution (Q.2, "is this thread leaving the cached segment?");
//   - MTQ, a missed-tag queue recording, for the last MatchedT misses,
//     which remote caches held the missed block (Q.3, "where to?").
//
// Remote residency is answered by per-core partial-address bloom filter
// signatures kept in sync with cache contents (Section 4.2.3). When the
// cache is full, dilution is high and all MTQ entries point at one remote
// core, the thread migrates there; failing that it migrates to an idle
// core; failing that it stays put.
//
// Three variants are provided (Section 4.3): type-oblivious SLICC, SLICC-SW
// (the software layer reveals each transaction's type) and SLICC-Pp (a
// dedicated scout core fingerprints types from the first instructions).
// The type-aware variants group same-type threads into teams and schedule
// teams onto core sets by size (Section 4.3.2).
package slicc

import (
	"fmt"

	"slicc/internal/bloom"
	"slicc/internal/sim"
	"slicc/internal/trace"
)

// Variant selects the SLICC flavour.
type Variant int

// Variants of Section 4.3.
const (
	// Oblivious is basic SLICC: no type information.
	Oblivious Variant = iota
	// SW receives transaction types from the software layer.
	SW
	// Pp derives types in hardware on a dedicated scout core.
	Pp
)

func (v Variant) String() string {
	switch v {
	case Oblivious:
		return "SLICC"
	case SW:
		return "SLICC-SW"
	case Pp:
		return "SLICC-Pp"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Config holds SLICC's thresholds (Section 5.2 settles on fill-up_t=256,
// matched_t=4, dilution_t=10 for a 32KB/512-block L1-I).
type Config struct {
	Variant Variant

	// FillUpT is the miss count at which the local cache is considered
	// full of a useful segment (default 256 = half the baseline L1-I's
	// 512 blocks).
	FillUpT int
	// MatchedT is how many recent missed tags must all be resident on one
	// remote cache before migrating there (default 4).
	MatchedT int
	// DilutionT is the minimum number of misses in the MSV window that
	// enables migration (default 10; 0 disables the dilution gate, the
	// Figure 7 exploration setting).
	DilutionT int
	// MSVWindow is the miss shift-vector length (default 100).
	MSVWindow int

	// BloomBits sizes the per-core cache signature (default 2048,
	// Section 5.3). BloomHashes defaults to 2.
	BloomBits   int
	BloomHashes int

	// PoolFactor caps live threads at PoolFactor*N (default 2: the paper's
	// pool of up to 2N threads).
	PoolFactor int

	// ExactSearch answers remote-residency queries from the actual cache
	// tags instead of the bloom signature (the Figure 7 "zero-overhead
	// exact search" assumption; also the ablation baseline for Figure 9).
	ExactSearch bool
	// CountSearchBroadcasts accounts one search broadcast per migration
	// evaluation on the NoC (Section 5.8's upper-bound accounting).
	// Disabled for the idealized threshold sweeps.
	CountSearchBroadcasts bool
	// DisableIdleFallback removes Q.3's step (2) (ablation).
	DisableIdleFallback bool

	// ScoutCycles is SLICC-Pp's per-thread preprocessing time on the
	// scout core (default 60 cycles: a few tens of instructions).
	ScoutCycles float64

	// YieldOnStay is the paper's future-work combination of SLICC with
	// STEPS-style time-domain pipelining (Section 6): when a migration
	// evaluation finds no destination (Q.3 case 3) but same-core threads
	// are queued, the thread yields locally so a teammate can reuse the
	// cached segment instead of both thrashing it. Extension; off by
	// default.
	YieldOnStay bool
}

// WithDefaults fills zero fields with the paper's configuration.
func (c Config) WithDefaults() Config {
	if c.FillUpT == 0 {
		c.FillUpT = 256
	}
	if c.MatchedT == 0 {
		c.MatchedT = 4
	}
	// DilutionT = 0 is meaningful (disabled); no default.
	if c.MSVWindow == 0 {
		c.MSVWindow = 100
	}
	if c.BloomBits == 0 {
		c.BloomBits = 2048
	}
	if c.BloomHashes == 0 {
		c.BloomHashes = 2
	}
	if c.PoolFactor == 0 {
		c.PoolFactor = 2
	}
	if c.ScoutCycles == 0 {
		c.ScoutCycles = 60
	}
	return c
}

// DefaultConfig returns the paper's evaluation configuration
// (Section 5.2): fill-up_t=256, matched_t=4, dilution_t=10.
func DefaultConfig(v Variant) Config {
	return Config{Variant: v, DilutionT: 10, CountSearchBroadcasts: true}.WithDefaults()
}

// fetchGroupBytes is the fetch-group size: one I-cache access covers this
// many instruction bytes (4 instructions of 4 bytes).
const fetchGroupBytes = 16

// Policy is the SLICC scheduler; it implements sim.Policy and the
// EnqueueMigrated extension the machine uses to deliver migrated threads.
type Policy struct {
	cfg Config
	m   *sim.Machine
	n   int

	agents []agent
	sigs   []*bloom.Filter

	queues [][]*sim.ThreadState // per-core waiting threads (the HW thread queues)
	live   int
	cap    int

	pending []*sim.ThreadState // oblivious admission FIFO
	teams   *teamScheduler     // SW/Pp admission

	scoutFree float64

	// statistics
	searches   uint64
	noDestStay uint64
	idleMoves  uint64
	matchMoves uint64
	yields     uint64
}

// New builds a SLICC policy.
func New(cfg Config) *Policy {
	return &Policy{cfg: cfg.WithDefaults()}
}

// Name implements sim.Policy.
func (p *Policy) Name() string { return p.cfg.Variant.String() }

// Config returns the policy configuration with defaults applied.
func (p *Policy) Config() Config { return p.cfg }

// scoutCore returns the dedicated preprocessing core for SLICC-Pp, or -1.
func (p *Policy) scoutCore() int {
	if p.cfg.Variant == Pp {
		return 0
	}
	return -1
}

// Attach implements sim.Policy.
func (p *Policy) Attach(m *sim.Machine, threads []*sim.ThreadState) {
	p.m = m
	p.n = m.Cores()
	p.cap = p.cfg.PoolFactor * p.n
	p.agents = make([]agent, p.n)
	for c := range p.agents {
		p.agents[c] = newAgent(p.cfg)
	}
	p.sigs = make([]*bloom.Filter, p.n)
	p.queues = make([][]*sim.ThreadState, p.n)
	for c := 0; c < p.n; c++ {
		f := bloom.New(bloom.Config{Bits: p.cfg.BloomBits, Hashes: p.cfg.BloomHashes})
		p.sigs[c] = f
		l1i := m.L1I(c)
		l1i.OnInsert = f.Insert
		l1i.OnEvict = f.Remove
	}

	switch p.cfg.Variant {
	case Oblivious:
		p.pending = append(p.pending[:0], threads...)
	case SW, Pp:
		workers := make([]int, 0, p.n)
		for c := 0; c < p.n; c++ {
			if c != p.scoutCore() {
				workers = append(workers, c)
			}
		}
		p.teams = newTeamScheduler(workers, threads)
		if p.cfg.Variant == Pp {
			// Every thread passes through the scout core before it is
			// eligible to run; the scout serializes at ScoutCycles each.
			for _, t := range threads {
				if p.scoutFree > t.ReadyAt {
					t.ReadyAt = p.scoutFree
				}
				p.scoutFree = t.ReadyAt + p.cfg.ScoutCycles
			}
		}
	}
}

// NextThread implements sim.Policy.
func (p *Policy) NextThread(core int) *sim.ThreadState {
	if core == p.scoutCore() {
		return nil // the scout core never runs transactions
	}
	// 1. The core's own hardware queue (migrated threads) first. The MSV
	// and MTQ track the *running* thread, so they reset on every switch;
	// the MC tracks the cache and is reset only when the queue drains
	// (Section 4.1, Q.1), giving the next thread a chance to load a new
	// segment while keeping the cached one discoverable.
	if q := p.queues[core]; len(q) > 0 {
		t := q[0]
		p.queues[core] = q[1:]
		p.agents[core].resetThreadState()
		if len(p.queues[core]) == 0 {
			p.agents[core].resetMC()
		}
		return t
	}
	// 2. Admit a new transaction if the pool has room. The queue is empty
	// here, so the same queue-empty rule applies: the new transaction may
	// cache a fresh segment before migrations are re-enabled. This is
	// also what keeps SLICC off the backs of cache-resident workloads
	// (MapReduce): a footprint smaller than fill-up_t never re-arms
	// migration.
	if p.live >= p.cap {
		return nil
	}
	var t *sim.ThreadState
	switch p.cfg.Variant {
	case Oblivious:
		if len(p.pending) > 0 {
			t = p.pending[0]
			p.pending = p.pending[1:]
		}
	default:
		t = p.teams.next(core)
	}
	if t != nil {
		p.live++
		p.agents[core].resetAll()
	}
	return t
}

// EnqueueMigrated receives a migrated (or locally yielded) thread for
// core's queue.
func (p *Policy) EnqueueMigrated(core int, t *sim.ThreadState) {
	p.queues[core] = append(p.queues[core], t)
}

// Yields reports the YieldOnStay context switches taken (extension metric).
func (p *Policy) Yields() uint64 { return p.yields }

// OnInstr implements sim.Policy: the per-core agent logic of Figure 5.
func (p *Policy) OnInstr(core int, t *sim.ThreadState, f sim.Fetch) int {
	a := &p.agents[core]
	if !a.full {
		if f.IMiss {
			a.mc++
			if a.mc >= p.cfg.FillUpT {
				a.full = true
			}
		}
		return -1
	}

	// The MSV records I-cache *accesses*, one per fetch group (the 6-wide
	// front end fetches ~4 instructions per access), not one per
	// instruction; miss dilution thresholds are calibrated to that rate.
	if f.PC%fetchGroupBytes == 0 || f.IMiss {
		a.pushMSV(f.IMiss)
	}
	if f.IMiss {
		a.pushMTQ(p.whereCached(f.Block, core))
	}
	if a.mtqLen < p.cfg.MatchedT {
		return -1
	}
	if a.msvOnes < p.cfg.DilutionT {
		return -1
	}

	// Migration evaluation: one remote segment search.
	p.searches++
	if p.cfg.CountSearchBroadcasts {
		p.m.Torus().Broadcast(core, true)
	}
	cand := a.mtqAND() &^ (1 << uint(core))
	dest := -1
	if cand != 0 {
		dest = p.nearest(core, cand)
	}
	if dest >= 0 {
		p.matchMoves++
	} else if !p.cfg.DisableIdleFallback {
		dest = p.idleCore(core)
		if dest >= 0 {
			p.idleMoves++
		}
	}
	// Whatever the outcome, this decision consumed the evidence: the MSV
	// is reset with every migration and the MTQ must refill before the
	// next evaluation.
	a.resetThreadState()
	if dest < 0 {
		p.noDestStay++
		if p.cfg.YieldOnStay && len(p.queues[core]) > 0 {
			// Time-domain fallback: hand the core to a queued thread
			// (which wants this cache's contents) rather than evicting
			// them. Returning the own core signals a context switch.
			p.yields++
			return core
		}
	}
	return dest
}

// OnQuietRun implements sim.QuietRunObserver. A quiet instruction is a
// hit: all OnInstr does with one is shift a zero into the MSV at a fetch-
// group boundary. It cannot reach a migration evaluation, because the
// instruction before the run did not (or reached one that reset the MTQ):
// a hit leaves the MTQ as it is and can only lower the MSV's miss count.
// The only other writer of this core's agent is a team-completion reset on
// another core, which wipes the MSV whatever was shifted into it.
func (p *Policy) OnQuietRun(core int, t *sim.ThreadState, ops []trace.Op) {
	a := &p.agents[core]
	if !a.full {
		return
	}
	for i := range ops {
		if ops[i].PC%fetchGroupBytes == 0 {
			a.pushMSV(false)
		}
	}
}

// OnThreadFinish implements sim.Policy.
func (p *Policy) OnThreadFinish(core int, t *sim.ThreadState) {
	p.live--
	if p.teams != nil && p.teams.finish(t) {
		// A team completed: reset all monitor units (Section 4.3.2).
		for c := range p.agents {
			p.agents[c].resetAll()
		}
	}
}

// whereCached returns the mask of other cores whose L1-I (per signature, or
// per actual tags under ExactSearch) holds the block.
func (p *Policy) whereCached(block uint64, self int) uint64 {
	var mask uint64
	for c := 0; c < p.n; c++ {
		if c == self {
			continue
		}
		var has bool
		if p.cfg.ExactSearch {
			has = p.m.L1I(c).ContainsBlock(block)
		} else {
			has = p.sigs[c].Contains(block)
		}
		if has {
			mask |= 1 << uint(c)
		}
	}
	return mask
}

// maxDestQueue caps the destination's hardware thread queue: migrating
// behind a deep queue forfeits the locality win to waiting time, so such
// candidates are skipped (the thread stays put and misses locally, Q.3
// case 3).
const maxDestQueue = 2

// nearest picks the candidate core closest on the torus (ties to the lowest
// index), skipping cores with saturated thread queues.
func (p *Policy) nearest(from int, mask uint64) int {
	best, bestD := -1, 1<<30
	for c := 0; c < p.n; c++ {
		if mask&(1<<uint(c)) == 0 {
			continue
		}
		if len(p.queues[c]) >= maxDestQueue {
			continue
		}
		if d := p.m.Torus().PeekLatency(from, c); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// idleCore finds the nearest core with no running thread and an empty
// queue, or -1.
func (p *Policy) idleCore(from int) int {
	best, bestD := -1, 1<<30
	for c := 0; c < p.n; c++ {
		if c == from || c == p.scoutCore() {
			continue
		}
		if p.m.Running(c) != nil || len(p.queues[c]) > 0 {
			continue
		}
		if d := p.m.Torus().PeekLatency(from, c); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// SearchStats reports migration-evaluation outcomes (for tests and the
// Section 5.8 analysis): total searches, matched-segment moves, idle-core
// moves, and stay-put decisions.
func (p *Policy) SearchStats() (searches, matched, idle, stayed uint64) {
	return p.searches, p.matchMoves, p.idleMoves, p.noDestStay
}

// StrayFraction reports the fraction of threads classified stray (0 for
// the oblivious variant, which has no teams).
func (p *Policy) StrayFraction() float64 {
	if p.teams == nil {
		return 0
	}
	return p.teams.strayFraction()
}
