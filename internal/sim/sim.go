// Package sim implements the trace-driven multicore simulator the
// reproduction runs on: N cores with private L1-I/L1-D caches, a shared
// NUCA L2 over a 2D torus, a MESI-style L1-D directory, hardware thread
// migration, and pluggable scheduling policies (the baseline OS scheduler
// in internal/sched, SLICC in internal/slicc) and instruction prefetchers
// (internal/prefetch).
//
// The machine replays workload threads (transactions) to completion and
// reports the paper's metrics: I-/D-MPKI, cycles (performance), migrations,
// search broadcasts (BPKI) and miss classifications. Timing follows the
// internal/cpu model; see DESIGN.md for the substitution rationale.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"slicc/internal/cache"
	"slicc/internal/cpu"
	"slicc/internal/mem"
	"slicc/internal/noc"
	"slicc/internal/tlb"
	"slicc/internal/trace"
)

// Config describes a machine.
type Config struct {
	// Cores is the core count (default 16, Table 2).
	Cores int
	// TorusWidth/TorusHeight shape the interconnect (default 4x4).
	TorusWidth, TorusHeight int
	// HopLatency is the per-hop cycle cost (default 1).
	HopLatency int
	// L1I and L1D configure the private caches (default 32KB, 8-way, 64B
	// blocks, 3-cycle).
	L1I, L1D cache.Config
	// Mem configures the shared L2/NUCA and memory.
	Mem mem.Config
	// CPU configures the timing model.
	CPU cpu.Config
	// TrackReuse enables the Figure 3 instruction-block reuse tracker
	// (costs memory proportional to the code footprint).
	TrackReuse bool
	// MaxInstructions aborts the run after this many instructions
	// (0 = unlimited). A safety net for exploratory configurations; the
	// abort trips at one global instruction count, so a machine with a
	// limit executes strictly one instruction per scheduler step (no
	// quiet-run retirement, see Machine.step).
	MaxInstructions uint64
	// InstrPeerTransfer serves L1-I misses from peer L1-I caches over the
	// NoC when possible (an ablation extension; the paper's machine keeps
	// coherence for L1-D only, so this defaults to off).
	InstrPeerTransfer bool
	// EnableTLB adds per-core I-/D-TLBs (64-entry, 4KB pages) and charges
	// page-walk latency. Off by default: the paper reports TLB effects as
	// a secondary observation (Section 5.5) and the headline calibration
	// excludes them.
	EnableTLB bool
	// LogEvents records every migration and context switch in the result
	// (costs memory proportional to the event count).
	LogEvents bool
	// TLB configures the TLBs when EnableTLB is set.
	TLB tlb.Config
}

// WithDefaults returns the configuration with every zero field replaced by
// its default. It is idempotent; job-oriented callers (internal/runner) use
// it to normalize configurations before content-keying them.
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Cores == 0 {
		c.Cores = 16
	}
	if c.TorusWidth == 0 || c.TorusHeight == 0 {
		// Choose the most square torus covering the cores.
		w := 1
		for w*w < c.Cores {
			w++
		}
		c.TorusWidth = w
		c.TorusHeight = (c.Cores + w - 1) / w
	}
	if c.HopLatency == 0 {
		c.HopLatency = 1
	}
	if c.L1I.SizeBytes == 0 {
		c.L1I.SizeBytes = 32 * 1024
	}
	if c.L1D.SizeBytes == 0 {
		c.L1D.SizeBytes = 32 * 1024
	}
	return c
}

// ThreadState is a transaction in flight.
type ThreadState struct {
	// ID and Type identify the thread; Type is only visible to type-aware
	// policies (SLICC-SW receives it from the software layer, SLICC-Pp
	// re-derives it on the scout core).
	ID   int
	Type int
	// TypeName is the transaction type's display name.
	TypeName string

	src trace.Source
	// batcher/spanner are src's optional bulk-decode fast paths, resolved
	// once at machine construction. batch[batchPos:batchLen] are
	// decoded-but-unexecuted ops: a reusable buffer the batcher (or, for a
	// source with neither, a loop over Next) fills, or a borrowed view of
	// the spanner's backing storage (no copy).
	batcher  trace.BatchSource
	spanner  trace.SpanSource
	batch    []trace.Op
	batchPos int
	batchLen int

	// ReadyAt is the earliest cycle the thread may (re)start after a
	// migration context transfer or preprocessing delay.
	ReadyAt float64
	// StartedAt is the cycle the thread first ran; Started marks it valid.
	StartedAt float64
	Started   bool
	// Instr counts executed instructions.
	Instr uint64
	// InstrOnCore counts instructions since the thread last changed core.
	InstrOnCore uint64
	// Migrations counts completed migrations.
	Migrations int
	// Done marks completion.
	Done bool
}

// Fetch describes one instruction fetch outcome for policy observation.
type Fetch struct {
	PC    uint64
	Block uint64 // instruction block address
	IMiss bool
	DMiss bool
}

// Policy schedules threads onto cores and decides migrations. The machine
// owns only the running thread per core; all queueing is the policy's.
type Policy interface {
	// Name identifies the policy in results.
	Name() string
	// Attach wires the policy to the machine and hands it the full thread
	// list before the run starts (a closed system: the paper replays a
	// fixed task set).
	Attach(m *Machine, threads []*ThreadState)
	// NextThread returns the next thread to start on the idle core, or
	// nil if the policy has nothing for it right now.
	NextThread(core int) *ThreadState
	// OnInstr observes the instruction just executed by the running
	// thread on core and may request a migration by returning dest >= 0
	// (dest == core is treated as staying put).
	OnInstr(core int, t *ThreadState, f Fetch) (dest int)
	// OnThreadFinish observes a thread completing on core.
	OnThreadFinish(core int, t *ThreadState)
}

// Prefetcher reacts to instruction fetches on a core, typically by calling
// Machine.PrefetchInstr. OnFetch is called when the core's fetch moves to
// another line and on every miss — not for repeat fetches of the line the
// core is already on, which the machine retires without consulting the
// cache model.
type Prefetcher interface {
	Name() string
	OnFetch(m *Machine, core int, pc uint64, miss bool)
}

// coreState is the per-core execution context.
type coreState struct {
	time    float64
	running *ThreadState
	instr   uint64
	imiss   uint64
	// fetchBlock/fetchValid are the core's current fetch line: a fetch
	// from the same instruction block as the previous one is a known hit
	// that changes no model state, and skips the cache model (sequential
	// fetch through a line is ~15 of every 16 instructions). That holds
	// for every observer of the fetch path: the L1-I's episode rule skips
	// the replacement update, the block is already the MRU node of the
	// classification shadow and its page the MRU entry of the I-TLB, and
	// prefetchers are not told of repeat fetches (see Prefetcher); what
	// remains is counting, which creditFetches does. Only this core's own
	// fetch path and PrefetchInstr can change the L1-I or its shadow, and
	// both maintain these fields. The reference loop never sets
	// fetchValid.
	fetchBlock uint64
	fetchValid bool
	// dataBlock/dataValid mirror fetchBlock for the core's last data
	// line: a *read* of the same block is a known hit with no model side
	// effects (a row scan walks a block word by word), again including the
	// L1-D shadow and the D-TLB. Writes always take the full path
	// (directory upgrade), and a remote write invalidating this block
	// clears the flag (see dataAccess).
	dataBlock uint64
	dataValid bool
}

// Event is one scheduling event (migration or same-core context switch).
type Event struct {
	Cycle    float64
	ThreadID int
	From, To int
	// Switch marks same-core context switches (STEPS); migrations
	// otherwise.
	Switch bool
}

// enqueuer is the optional policy extension through which the machine
// delivers migrated (or locally yielded) threads back to a policy queue.
type enqueuer interface {
	EnqueueMigrated(core int, t *ThreadState)
}

// QuietRunObserver is the optional policy extension that lets the machine
// retire quiet runs in one step. A quiet instruction fetches from the line
// the core is already on and accesses no data: it cannot miss, and it
// reads and writes nothing another core can observe. After an instruction
// for which OnInstr requested no move, the machine retires the quiet
// instructions that follow it in the thread's stream all at once and calls
// OnQuietRun in place of their OnInstr calls; t.Instr and t.InstrOnCore
// still count the instruction before the run.
//
// A policy may implement it only if, for such instructions, its OnInstr
// never requests a move and touches only state private to the core or the
// running thread: it may not read another core's clock, another thread's
// Instr, or any state another core's events write. OnQuietRun must leave
// the policy exactly as those OnInstr calls would have. A policy without
// it (one that can act at any instruction, like sched.CSP) is stepped one
// instruction at a time.
type QuietRunObserver interface {
	// OnQuietRun observes ops, the run's instructions in order: all on
	// one instruction block, none with a data access, none missing.
	OnQuietRun(core int, t *ThreadState, ops []trace.Op)
}

// Machine is a configured multicore instance, single-use: build, Run, read
// results.
type Machine struct {
	cfg    Config
	torus  *noc.Torus
	hier   *mem.Hierarchy
	l1i    []*cache.Cache
	l1d    []*cache.Cache
	timing cpu.Timing
	policy Policy
	pref   Prefetcher
	// enqueue is the policy's EnqueueMigrated, type-asserted once at run
	// start instead of on every migration (nil for policies that never
	// migrate, e.g. the baseline scheduler).
	enqueue enqueuer
	// quiet is the policy's OnQuietRun, type-asserted once at run start;
	// nil steps the machine one instruction at a time (the policy has no
	// bulk hook, MaxInstructions is set, or the reference loop runs).
	quiet QuietRunObserver
	// referenceLoop forces the pre-batching scheduler (see
	// UseReferenceLoop).
	referenceLoop bool
	// iBlockShift/dBlockShift cache the L1 block shifts.
	iBlockShift uint
	dBlockShift uint
	// quietCycles is what an instruction with no miss latency costs:
	// timing.InstrCycles(0, 0), computed once.
	quietCycles float64
	// The running cores live in a two-tier event queue ordered by (local
	// clock, core index); membership mirrors coreState.running exactly
	// (fillIdleCores pushes, the finish/migrate/switch paths remove, the
	// batched loop floats the core it is stepping).
	//
	//   - cur[curPos:] is the *current round*: a sorted snapshot of core
	//     clocks. While every stepped core lands beyond the horizon — the
	//     next entry's clock — picking the global minimum is one compare
	//     and a cursor bump.
	//   - fut is a min-heap of everything else: cores already stepped
	//     this round, refilled cores, migration targets. Its root is the
	//     horizon the current round is checked against.
	//
	// When the round is exhausted, fut (typically already near-sorted,
	// because lockstep cores re-arrive in clock order) becomes the next
	// round via one insertion sort. The global minimum is therefore
	// min(cur[curPos], fut[0]) at every step — exactly the core a full
	// scan would pick — at an amortized couple of compares per
	// instruction instead of an O(cores) scan or an O(log cores) sift.
	cur    []heapEntry
	curPos int
	fut    []heapEntry
	// floating is the core currently being stepped by the batched loop
	// (absent from both tiers); -1 otherwise. heapRemove uses it to make
	// mid-step removals O(1).
	floating int32

	cores   []coreState
	threads []*ThreadState
	dir     *directory
	reuse   *ReuseTracker
	itlb    []*tlb.TLB
	dtlb    []*tlb.TLB

	events    []Event
	latencies []float64
	// instr doubles as the instruction-fetch access count: every executed
	// instruction performs exactly one fetch.
	instr uint64
	// runInstr counts the instructions retired in quiet runs (LoopStats).
	runInstr   uint64
	iMis       uint64
	iPeer      uint64
	dAcc, dMis uint64
	migrations uint64
	switches   uint64
	invals     uint64
	finished   int
	aborted    bool
}

// New builds a machine over the given workload threads. policy is required;
// pref may be nil.
func New(cfg Config, policy Policy, pref Prefetcher, threads []trace.Thread) *Machine {
	cfg = cfg.withDefaults()
	if policy == nil {
		panic("sim: nil policy")
	}
	m := &Machine{
		cfg:           cfg,
		torus:         noc.New(cfg.TorusWidth, cfg.TorusHeight, cfg.HopLatency),
		timing:        cpu.NewTiming(cfg.CPU),
		policy:        policy,
		pref:          pref,
		cores:         make([]coreState, cfg.Cores),
		dir:           newDirectory(cfg.Cores),
		referenceLoop: slowSimDefault,
		cur:           make([]heapEntry, 0, cfg.Cores),
		fut:           make([]heapEntry, 0, cfg.Cores),
		floating:      -1,
	}
	m.hier = mem.New(cfg.Mem, m.torus)
	m.l1i = make([]*cache.Cache, cfg.Cores)
	m.l1d = make([]*cache.Cache, cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		ic := cfg.L1I
		dc := cfg.L1D
		ic.Seed = int64(c + 1)
		dc.Seed = int64(1000 + c)
		m.l1i[c] = cache.New(ic)
		m.l1d[c] = cache.New(dc)
	}
	m.threads = make([]*ThreadState, len(threads))
	for i, th := range threads {
		t := &ThreadState{
			ID:       th.ID,
			Type:     th.Type,
			TypeName: th.TypeName,
			src:      th.New(),
		}
		if ss, ok := t.src.(trace.SpanSource); ok {
			t.spanner = ss
		} else {
			t.batcher, _ = t.src.(trace.BatchSource)
			t.batch = make([]trace.Op, opBatchLen)
		}
		m.threads[i] = t
	}
	if cfg.TrackReuse {
		m.reuse = NewReuseTracker(len(threads))
	}
	m.iBlockShift = uint(bits.TrailingZeros64(uint64(m.l1i[0].Config().BlockBytes)))
	m.dBlockShift = uint(bits.TrailingZeros64(uint64(m.l1d[0].Config().BlockBytes)))
	m.quietCycles = m.timing.InstrCycles(0, 0)
	if cfg.EnableTLB {
		m.itlb = make([]*tlb.TLB, cfg.Cores)
		m.dtlb = make([]*tlb.TLB, cfg.Cores)
		for c := 0; c < cfg.Cores; c++ {
			m.itlb[c] = tlb.New(cfg.TLB)
			m.dtlb[c] = tlb.New(cfg.TLB)
		}
		// A repeat access to a cache line is a repeat access to its page
		// (coreState.fetchBlock) only if lines do not straddle pages.
		page := uint(bits.TrailingZeros64(uint64(m.itlb[0].Config().PageBytes)))
		if page < m.iBlockShift || page < m.dBlockShift {
			panic("sim: TLB page smaller than an L1 block")
		}
	}
	return m
}

// Release returns the machine's cache backing stores — the L2 and every
// L1, megabytes that New would otherwise allocate, zero and index afresh —
// for reuse by later machines of the same geometry. Call it once the run
// is over and its Result is in hand: afterwards the machine must not run,
// and its caches (L1I, L1D, Hierarchy) must not be accessed or probed; the
// Result, Reuse tracker and statistics already read stay valid, since none
// of them aliases cache storage. Releasing is optional — a machine that is
// never released is garbage collected whole — and idempotent.
func (m *Machine) Release() {
	for c := range m.l1i {
		m.l1i[c].Release()
		m.l1d[c].Release()
	}
	m.hier.Release()
}

// Recycled reports whether the machine's L2, the bulk of its storage, was
// built on a released store.
func (m *Machine) Recycled() bool { return m.hier.Recycled() }

// Accessors used by policies, prefetchers and experiments.

// Cores returns the core count.
func (m *Machine) Cores() int { return m.cfg.Cores }

// Torus returns the interconnect model.
func (m *Machine) Torus() *noc.Torus { return m.torus }

// Hierarchy returns the shared L2/memory model.
func (m *Machine) Hierarchy() *mem.Hierarchy { return m.hier }

// L1I returns core c's instruction cache.
func (m *Machine) L1I(c int) *cache.Cache { return m.l1i[c] }

// L1D returns core c's data cache.
func (m *Machine) L1D(c int) *cache.Cache { return m.l1d[c] }

// ITLB returns core c's instruction TLB (nil unless Config.EnableTLB).
func (m *Machine) ITLB(c int) *tlb.TLB {
	if m.itlb == nil {
		return nil
	}
	return m.itlb[c]
}

// DTLB returns core c's data TLB (nil unless Config.EnableTLB).
func (m *Machine) DTLB(c int) *tlb.TLB {
	if m.dtlb == nil {
		return nil
	}
	return m.dtlb[c]
}

// Timing returns the cycle-cost model.
func (m *Machine) Timing() cpu.Timing { return m.timing }

// Running returns the thread currently executing on core c, or nil.
func (m *Machine) Running(c int) *ThreadState { return m.cores[c].running }

// Now returns core c's local clock.
func (m *Machine) Now(c int) float64 { return m.cores[c].time }

// Reuse returns the Figure 3 tracker (nil unless Config.TrackReuse).
func (m *Machine) Reuse() *ReuseTracker { return m.reuse }

// LoopStats counts the scheduler's own work, which is no part of the
// simulated outcome (and so of no Result): the same run reads the same
// Result on either loop, and different LoopStats.
type LoopStats struct {
	// Events is the instructions the scheduler stepped one by one: each
	// cost a scheduling decision, a cache-model consult at most, and a
	// Policy.OnInstr call.
	Events uint64
	// RunInstructions is the instructions retired in quiet runs behind
	// those events. Events + RunInstructions == Result.Instructions.
	RunInstructions uint64
}

// LoopStats returns the scheduler's work counts so far.
func (m *Machine) LoopStats() LoopStats {
	return LoopStats{Events: m.instr - m.runInstr, RunInstructions: m.runInstr}
}

// PrefetchInstr fills the block containing addr into core c's L1-I,
// updating L2 state; the fill latency is assumed hidden (prefetches are
// not on the critical path in this model).
func (m *Machine) PrefetchInstr(c int, addr uint64) {
	if m.l1i[c].Contains(addr) {
		return
	}
	m.hier.FetchLatency(c, addr)
	m.l1i[c].Fill(addr)
	// The fill may have evicted the core's current fetch line; drop the
	// fast-fetch assumption until the next modeled fetch re-establishes it.
	m.cores[c].fetchValid = false
}

// Run executes all threads to completion and returns the results.
func (m *Machine) Run() Result {
	r, _ := m.RunContext(context.Background())
	return r
}

// cancelCheckMask throttles the cancellation poll to every 1024 steps; a
// channel select per instruction would dominate the simulation loop.
const cancelCheckMask = 1024 - 1

// opBatchLen is how many ops the machine decodes per BatchSource call into
// a thread's reusable buffer.
const opBatchLen = 256

// RunContext is Run with cooperative cancellation: when ctx is cancelled the
// run stops within a bounded number of simulated instructions and the
// partial result is returned alongside ctx.Err(). A completed run returns a
// nil error.
//
// The scheduler is event-horizon batched (see the cur/fut fields): every
// instruction executes on the core a full per-instruction scan would pick
// — the global (clock, index) minimum — but the pick costs an amortized
// couple of compares, because stepping the minimum core never advances any
// other core's clock. The interleaving, and therefore the result, is
// bit-identical to the reference scheduler's (see DESIGN.md and
// TestEventHorizonMatchesReference).
func (m *Machine) RunContext(ctx context.Context) (Result, error) {
	done := ctx.Done()
	m.policy.Attach(m, m.threads)
	m.enqueue, _ = m.policy.(enqueuer)
	if !m.referenceLoop && m.cfg.MaxInstructions == 0 {
		m.quiet, _ = m.policy.(QuietRunObserver)
	}
	m.fillIdleCores()
	if m.referenceLoop {
		return m.runReference(ctx, done)
	}
	if m.runLoop(done) {
		m.aborted = true
		return m.result(), ctx.Err()
	}
	return m.result(), nil
}

// runLoop runs the event-horizon scheduler until the machine has no work
// left — every thread done, or the MaxInstructions abort tripped
// (m.aborted distinguishes) — and reports whether it stopped early
// because the done channel fired at a poll point instead.
func (m *Machine) runLoop(done <-chan struct{}) (cancelled bool) {
	steps := uint64(0)
	for {
		if done != nil && steps&cancelCheckMask == 0 {
			select {
			case <-done:
				return true
			default:
			}
		}
		if m.curPos >= len(m.cur) {
			// Round exhausted: the stepped cores become the next round.
			if len(m.fut) == 0 {
				if !m.fillIdleCores() {
					return false
				}
				continue
			}
			m.cur, m.fut = m.fut, m.cur[:0]
			m.curPos = 0
			sortEntries(m.cur)
			continue
		}
		e := m.cur[m.curPos]
		if len(m.fut) > 0 && m.fut[0].less(e) {
			// A stepped or refilled core is behind the whole round: run it
			// off the future heap until it crosses back over. Its event
			// horizon — the nearest clock that could take the minimum over
			// — is the smaller of the round head and the heap root's
			// children, computed once; until the streak crosses it, each
			// instruction costs one compare and no queue updates.
			root := m.fut[0]
			c := int(root.c)
			hz := e
			if len(m.fut) > 1 {
				l := 1
				if len(m.fut) > 2 && m.fut[2].less(m.fut[1]) {
					l = 2
				}
				if m.fut[l].less(hz) {
					hz = m.fut[l]
				}
			}
			for {
				if done != nil && steps&cancelCheckMask == 0 {
					select {
					case <-done:
						return true
					default:
					}
				}
				steps++
				sched := m.step(c)
				if m.cfg.MaxInstructions > 0 && m.instr >= m.cfg.MaxInstructions {
					m.aborted = true
					return false
				}
				if sched {
					break
				}
				ct := m.cores[c].time
				if ct < hz.t || (ct == hz.t && root.c < hz.c) {
					continue
				}
				// Crossed the horizon: the heap root's key is stale (that
				// staleness is the streak optimization), so re-sync it.
				m.fut[0].t = ct
				m.siftDown(0)
				break
			}
			continue
		}
		c := int(e.c)
		m.curPos++
		m.floating = e.c
		steps++
		sched := m.step(c)
		if m.cfg.MaxInstructions > 0 && m.instr >= m.cfg.MaxInstructions {
			m.aborted = true
			return false
		}
		if !sched {
			// Still running: rejoin the queue with the advanced clock.
			// (On sched events heapRemove consumed the float marker, and
			// any refill re-entered the core through heapPush.)
			m.futPush(heapEntry{t: m.cores[c].time, c: e.c})
		}
		m.floating = -1
	}
}

// runReference is the pre-batching scheduler: one nextCore scan per
// instruction and unbatched Source.Next decoding. It is the differential-
// testing oracle for the event-horizon loop (forced globally by the
// `slowsim` build tag, per machine by UseReferenceLoop) and is kept
// byte-for-byte at the original loop structure.
func (m *Machine) runReference(ctx context.Context, done <-chan struct{}) (Result, error) {
	for steps := uint64(0); ; steps++ {
		if done != nil && steps&cancelCheckMask == 0 {
			select {
			case <-done:
				m.aborted = true
				return m.result(), ctx.Err()
			default:
			}
		}
		c := m.nextCore()
		if c < 0 {
			if !m.fillIdleCores() {
				break
			}
			continue
		}
		m.step(c)
		if m.cfg.MaxInstructions > 0 && m.instr >= m.cfg.MaxInstructions {
			m.aborted = true
			break
		}
	}
	return m.result(), nil
}

// UseReferenceLoop selects (true) or deselects (false) the one-instruction-
// per-scan reference scheduler for this machine. Call it before Run; it
// exists for differential testing against the event-horizon loop. The
// `slowsim` build tag flips the default for every machine in the binary.
func (m *Machine) UseReferenceLoop(v bool) { m.referenceLoop = v }

// nextCore picks the running core with the smallest local time (the
// reference loop's per-instruction scan; the batched loop reads the heap
// root instead).
func (m *Machine) nextCore() int {
	best, bestT := -1, math.Inf(1)
	for c := range m.cores {
		if m.cores[c].running != nil && m.cores[c].time < bestT {
			best, bestT = c, m.cores[c].time
		}
	}
	return best
}

// heapEntry is one running core with its clock copied in as the sort key.
type heapEntry struct {
	t float64
	c int32
}

// less orders entries by (clock, core index) — the same total order the
// scan's "strictly smaller time, first index wins" rule induces. Keys are
// unique, so the heap root is always the scan's unique pick.
func (a heapEntry) less(b heapEntry) bool {
	return a.t < b.t || (a.t == b.t && a.c < b.c)
}

// heapPush enters core c into the event queue (always the future tier;
// the current round is an immutable sorted snapshot).
func (m *Machine) heapPush(c int) {
	m.futPush(heapEntry{t: m.cores[c].time, c: int32(c)})
}

// heapRemove drops core c from the event queue. In the batched loop c is
// the stepping core — floated out of both tiers — so this is one compare;
// the scans below serve the reference loop, where the queue is maintained
// but never consulted.
func (m *Machine) heapRemove(c int) {
	if int32(c) == m.floating {
		m.floating = -1
		return
	}
	for i := range m.fut {
		if int(m.fut[i].c) == c {
			last := len(m.fut) - 1
			if i != last {
				m.fut[i] = m.fut[last]
				m.fut = m.fut[:last]
				m.siftDown(i)
				m.siftUp(i)
			} else {
				m.fut = m.fut[:last]
			}
			return
		}
	}
	for i := m.curPos; i < len(m.cur); i++ {
		if int(m.cur[i].c) == c {
			m.cur = append(m.cur[:i], m.cur[i+1:]...)
			return
		}
	}
}

// sortEntries insertion-sorts a round snapshot. Rounds arrive near-sorted
// (lockstep cores re-enter the future tier in clock order), so this is
// typically one compare per entry; core counts are small either way.
func sortEntries(h []heapEntry) {
	for i := 1; i < len(h); i++ {
		e := h[i]
		j := i - 1
		for j >= 0 && e.less(h[j]) {
			h[j+1] = h[j]
			j--
		}
		h[j+1] = e
	}
}

func (m *Machine) futPush(e heapEntry) {
	m.fut = append(m.fut, e)
	m.siftUp(len(m.fut) - 1)
}

func (m *Machine) siftUp(i int) {
	h := m.fut
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (m *Machine) siftDown(i int) {
	h := m.fut
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && h[r].less(h[l]) {
			small = r
		}
		if !h[small].less(h[i]) {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// fillIdleCores polls the policy for work on every idle core; it reports
// whether any core received a thread.
func (m *Machine) fillIdleCores() bool {
	any := false
	for c := range m.cores {
		if m.cores[c].running != nil {
			continue
		}
		t := m.policy.NextThread(c)
		if t == nil {
			continue
		}
		if t.Done {
			panic(fmt.Sprintf("sim: policy scheduled finished thread %d", t.ID))
		}
		if t.ReadyAt > m.cores[c].time {
			m.cores[c].time = t.ReadyAt
		}
		if !t.Started {
			t.Started = true
			t.StartedAt = m.cores[c].time
		}
		t.InstrOnCore = 0
		m.cores[c].running = t
		m.heapPush(c)
		any = true
	}
	return any
}

// refillOp is step's slow path: pull the next op window from the thread's
// bulk decoder, or decode one with Source.Next. The reference loop always
// takes single ops from Next, so the differential test exercises the batch
// decoders against the plain decoder too.
func (m *Machine) refillOp(t *ThreadState) (trace.Op, bool) {
	if m.referenceLoop {
		return t.src.Next()
	}
	if t.spanner != nil {
		sp := t.spanner.NextSpan(opBatchLen)
		if len(sp) == 0 {
			return trace.Op{}, false
		}
		t.batch = sp
		t.batchPos, t.batchLen = 1, len(sp)
		return sp[0], true
	}
	n := 0
	if t.batcher != nil {
		n = t.batcher.NextBatch(t.batch)
	} else {
		for ; n < len(t.batch); n++ {
			op, ok := t.src.Next()
			if !ok {
				break
			}
			t.batch[n] = op
		}
	}
	if n <= 0 {
		return trace.Op{}, false
	}
	t.batchPos, t.batchLen = 1, n
	return t.batch[0], true
}

// step executes one instruction on core c and, when nothing came of it,
// retires the quiet run behind it (retireQuietRun). It reports whether the
// running set changed (thread finish, migration or context switch) — the
// events that invalidate the caller's scheduling horizon.
func (m *Machine) step(c int) (sched bool) {
	cs := &m.cores[c]
	t := cs.running
	// The batch-consume fast path is written out here: this is the hottest
	// load in the simulator and the refill branch is cold.
	var op trace.Op
	var ok bool
	if t.batchPos < t.batchLen {
		op = t.batch[t.batchPos]
		t.batchPos++
		ok = true
	} else {
		op, ok = m.refillOp(t)
	}
	if !ok {
		t.Done = true
		m.finished++
		m.latencies = append(m.latencies, cs.time-t.StartedAt)
		cs.running = nil
		m.heapRemove(c)
		m.policy.OnThreadFinish(c, t)
		m.fillIdleCores()
		return true
	}

	// Instruction fetch. A miss is served by the L2/memory hierarchy;
	// optionally (Config.InstrPeerTransfer, an extension ablation — the
	// paper's Table 2 machine keeps MESI for L1-D only) by cache-to-cache
	// transfer from the nearest peer L1-I holding the block.
	//
	// A fetch from the core's current line is a known hit with no model
	// side effects (coreState.fetchBlock), so the cache model is consulted
	// only on line changes.
	block := op.PC >> m.iBlockShift
	iHit := true
	ilat := 0
	if block == cs.fetchBlock && cs.fetchValid {
		m.creditFetches(c, t, block, 1)
	} else {
		ires := m.l1i[c].Access(op.PC, false)
		cs.fetchBlock, cs.fetchValid = block, !m.referenceLoop
		iHit = ires.Hit
		if !ires.Hit {
			m.iMis++
			cs.imiss++
			peer := -1
			if m.cfg.InstrPeerTransfer {
				peer = m.nearestInstrPeer(c, block)
			}
			if peer >= 0 {
				m.iPeer++
				ilat = 2*m.torus.Latency(c, peer) + peerTagCycles
			} else {
				ilat = m.hier.FetchLatency(c, op.PC)
			}
		}
		if m.itlb != nil {
			ilat += m.itlb[c].Access(op.PC)
		}
		if m.pref != nil {
			m.pref.OnFetch(m, c, op.PC, !ires.Hit)
		}
		if m.reuse != nil {
			m.reuse.Record(block, t.ID, t.Type, 1)
		}
	}

	// Data access.
	dlat := 0
	dmiss := false
	if op.HasData {
		dlat, dmiss = m.dataAccess(c, op.DataAddr, op.IsWrite)
	}

	cs.time += m.timing.InstrCycles(ilat, dlat)
	t.Instr++
	t.InstrOnCore++
	cs.instr++
	m.instr++

	f := Fetch{PC: op.PC, Block: block, IMiss: !iHit, DMiss: dmiss}
	if dest := m.policy.OnInstr(c, t, f); dest >= 0 && dest < m.cfg.Cores {
		if dest == c {
			m.contextSwitch(c, t)
		} else {
			m.migrate(c, dest, t)
		}
		return true
	}
	// fetchValid is false here only if a prefetch fill just disturbed the
	// L1-I (PrefetchInstr): the next fetch must consult it again.
	if m.quiet != nil && cs.fetchValid {
		m.retireQuietRun(c, cs, t)
	}
	return false
}

// creditFetches counts n fetches of core c's current line by thread t,
// which skipped the cache model, wherever a modeled fetch is counted.
func (m *Machine) creditFetches(c int, t *ThreadState, block uint64, n uint64) {
	m.l1i[c].CountHits(n)
	if m.itlb != nil {
		m.itlb[c].CountHits(n)
	}
	if m.reuse != nil {
		m.reuse.Record(block, t.ID, t.Type, n)
	}
}

// retireQuietRun retires, in one step, the quiet instructions that follow
// the one core c just executed: the already-decoded ops that fetch from the
// core's current line and access no data. Each is a known L1-I hit that
// touches no shared state — no cache, directory, NoC or queue, and (the
// QuietRunObserver contract) no policy state another core's events read or
// write — so it commutes with every instruction of every other core:
// retiring it now, ahead of other cores' earlier-clocked instructions,
// leaves each non-quiet instruction of the machine with exactly the
// (clock-before, core) key, and the state, it has under the reference
// scheduler. That is why the run may cross the caller's event horizon.
//
// The clock takes one add per instruction, not one multiply, so float
// accumulation rounds exactly as instruction-at-a-time stepping does.
func (m *Machine) retireQuietRun(c int, cs *coreState, t *ThreadState) {
	ops := t.batch[t.batchPos:t.batchLen]
	block, shift := cs.fetchBlock, m.iBlockShift
	k := 0
	for k < len(ops) && !ops[k].HasData && ops[k].PC>>shift == block {
		k++
	}
	if k == 0 {
		return
	}
	m.quiet.OnQuietRun(c, t, ops[:k])
	time, cycles := cs.time, m.quietCycles
	for i := 0; i < k; i++ {
		time += cycles
	}
	cs.time = time
	n := uint64(k)
	t.batchPos += k
	t.Instr += n
	t.InstrOnCore += n
	cs.instr += n
	m.instr += n
	m.runInstr += n
	m.creditFetches(c, t, block, n)
}

// contextSwitch yields the running thread back to its own core's queue
// (STEPS-style time multiplexing): no interconnect or L2 transfer, only the
// fixed pipeline-drain/state-save cost.
func (m *Machine) contextSwitch(c int, t *ThreadState) {
	cost := m.timing.Config().MigrationBaseCycles
	t.ReadyAt = m.cores[c].time + float64(cost)
	m.switches++
	if m.cfg.LogEvents {
		m.events = append(m.events, Event{Cycle: m.cores[c].time, ThreadID: t.ID, From: c, To: c, Switch: true})
	}
	m.cores[c].running = nil
	m.heapRemove(c)
	if m.enqueue == nil {
		panic(fmt.Sprintf("sim: policy %q yielded without EnqueueMigrated", m.policy.Name()))
	}
	m.enqueue.EnqueueMigrated(c, t)
	m.fillIdleCores()
}

// dataAccess performs a data reference with MESI-style directory
// bookkeeping and returns the added latency and miss flag.
func (m *Machine) dataAccess(c int, addr uint64, write bool) (lat int, miss bool) {
	m.dAcc++
	block := addr >> m.dBlockShift
	cs := &m.cores[c]
	// A read of the core's current data line is a known hit with no model
	// side effects (coreState.dataBlock). Row scans walk a block word by
	// word, so this is the common data reference. Writes always take the
	// full path (they may need a directory upgrade).
	if !write && block == cs.dataBlock && cs.dataValid {
		m.l1d[c].CountHits(1)
		if m.dtlb != nil {
			m.dtlb[c].CountHits(1)
		}
		return 0, false
	}
	if m.dtlb != nil {
		lat = m.dtlb[c].Access(addr)
	}
	l1d := m.l1d[c]
	res := l1d.Access(addr, write)
	cs.dataBlock, cs.dataValid = block, !m.referenceLoop
	if res.EvictedValid {
		m.dir.removeSharer(res.Evicted, c)
	}
	if !res.Hit {
		m.dMis++
		miss = true
		lat += m.hier.FetchLatency(c, addr)
		m.dir.addSharer(block, c)
	}
	if write {
		// Invalidate other sharers; the invalidation round trip is
		// charged once if any copies existed elsewhere (write-allocate,
		// MESI upgrade). The mask is walked bit by set bit (ascending
		// core order, same as the full scan it replaced).
		if others := m.dir.othersOf(block, c); others != 0 {
			for rem := others; rem != 0; rem &= rem - 1 {
				o := bits.TrailingZeros64(rem)
				m.l1d[o].InvalidateBlock(block)
				if m.cores[o].dataBlock == block {
					// The victim core's line micro-cache must not keep
					// reporting the invalidated block resident.
					m.cores[o].dataValid = false
				}
				m.invals++
			}
			m.dir.setExclusive(block, c)
			lat += m.torus.Broadcast(c, false)
		}
	}
	return lat, miss
}

// peerTagCycles is the fixed cost of a peer L1 tag probe + line read.
const peerTagCycles = 2

// nearestInstrPeer returns the closest other core whose L1-I holds the
// block, or -1.
func (m *Machine) nearestInstrPeer(c int, block uint64) int {
	best, bestD := -1, 1<<30
	for o := 0; o < m.cfg.Cores; o++ {
		if o == c || !m.l1i[o].ContainsBlock(block) {
			continue
		}
		if d := m.torus.Distance(c, o); d < bestD {
			best, bestD = o, d
		}
	}
	return best
}

// migrate moves the running thread on src to dst's policy queue, charging
// the context-transfer latency (Section 4.4: architectural state staged
// through the L2 near the target).
func (m *Machine) migrate(src, dst int, t *ThreadState) {
	nocRT := 2 * m.torus.Latency(src, dst)
	cost := m.timing.MigrationCycles(nocRT, m.hier.Config().L2HitLatency, m.hier.Config().BlockBytes)
	t.ReadyAt = m.cores[src].time + float64(cost)
	t.Migrations++
	m.migrations++
	if m.cfg.LogEvents {
		m.events = append(m.events, Event{Cycle: m.cores[src].time, ThreadID: t.ID, From: src, To: dst})
	}
	m.cores[src].running = nil
	m.heapRemove(src)
	if m.enqueue == nil {
		panic(fmt.Sprintf("sim: policy %q requested migration without EnqueueMigrated", m.policy.Name()))
	}
	m.enqueue.EnqueueMigrated(dst, t)
	m.fillIdleCores()
}
