package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"slicc/internal/mem"
	"slicc/internal/noc"
)

// Result aggregates a completed run's metrics.
type Result struct {
	Policy string

	Instructions uint64
	// Cycles is the makespan: the largest core-local clock when the last
	// transaction finishes. Performance comparisons divide makespans.
	Cycles float64

	IAccesses, IMisses uint64
	// IPeerHits counts instruction misses served by a remote L1-I
	// (cache-to-cache) instead of the L2/memory.
	IPeerHits          uint64
	DAccesses, DMisses uint64
	// IClass breaks instruction misses into compulsory/capacity/conflict
	// (zero unless the L1-I was configured with Classify).
	ICompulsory, ICapacity, IConflict uint64
	DCompulsory, DCapacity, DConflict uint64

	// ITLBMisses/DTLBMisses are zero unless Config.EnableTLB.
	ITLBMisses, DTLBMisses uint64

	Migrations uint64
	// ContextSwitches counts same-core yields (STEPS-style policies).
	ContextSwitches uint64
	Invalidations   uint64
	ThreadsFinished int
	Aborted         bool

	Noc noc.Stats
	Mem mem.Stats

	// Latencies holds each finished transaction's service time in cycles
	// (first dispatch to completion), sorted ascending.
	Latencies []float64
	// PerCore holds per-core activity (index = core id).
	PerCore []CoreStat
	// Events is the migration/context-switch log (nil unless
	// Config.LogEvents).
	Events []Event
}

// CoreStat summarizes one core's activity.
type CoreStat struct {
	Instructions uint64
	IMisses      uint64
	Cycles       float64
}

// LatencyPercentile returns the p-th percentile (0..100) transaction
// latency in cycles, or 0 when nothing finished.
func (r Result) LatencyPercentile(p float64) float64 {
	if len(r.Latencies) == 0 {
		return 0
	}
	if p <= 0 {
		return r.Latencies[0]
	}
	if p >= 100 {
		return r.Latencies[len(r.Latencies)-1]
	}
	idx := int(p / 100 * float64(len(r.Latencies)-1))
	return r.Latencies[idx]
}

// IMPKI returns instruction misses per kilo-instruction.
func (r Result) IMPKI() float64 { return mpki(r.IMisses, r.Instructions) }

// ITLBMPKI returns I-TLB misses per kilo-instruction.
func (r Result) ITLBMPKI() float64 { return mpki(r.ITLBMisses, r.Instructions) }

// DTLBMPKI returns D-TLB misses per kilo-instruction.
func (r Result) DTLBMPKI() float64 { return mpki(r.DTLBMisses, r.Instructions) }

// DMPKI returns data misses per kilo-instruction.
func (r Result) DMPKI() float64 { return mpki(r.DMisses, r.Instructions) }

// BPKI returns SLICC search broadcasts per kilo-instruction (Section 5.8).
func (r Result) BPKI() float64 { return mpki(r.Noc.SearchBroadcasts, r.Instructions) }

// MPKI returns total L1 misses per kilo-instruction.
func (r Result) MPKI() float64 { return mpki(r.IMisses+r.DMisses, r.Instructions) }

// InstrPerMigration returns the mean instructions between migrations
// (the paper reports ~3.2K); +Inf when no migrations occurred.
func (r Result) InstrPerMigration() float64 {
	if r.Migrations == 0 {
		return inf()
	}
	return float64(r.Instructions) / float64(r.Migrations)
}

// SpeedupOver returns base.Cycles / r.Cycles.
func (r Result) SpeedupOver(base Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return base.Cycles / r.Cycles
}

func (r Result) String() string {
	return fmt.Sprintf("%s: %d instr, %.0f cycles, I-MPKI %.2f, D-MPKI %.2f, %d migrations",
		r.Policy, r.Instructions, r.Cycles, r.IMPKI(), r.DMPKI(), r.Migrations)
}

func mpki(misses, instr uint64) float64 {
	if instr == 0 {
		return 0
	}
	return 1000 * float64(misses) / float64(instr)
}

func inf() float64 { return math.Inf(1) }

// result snapshots the machine's counters.
func (m *Machine) result() Result {
	r := Result{
		Policy:          m.policy.Name(),
		Instructions:    m.instr,
		IAccesses:       m.instr, // one fetch per executed instruction
		IMisses:         m.iMis,
		IPeerHits:       m.iPeer,
		DAccesses:       m.dAcc,
		DMisses:         m.dMis,
		Migrations:      m.migrations,
		ContextSwitches: m.switches,
		Invalidations:   m.invals,
		ThreadsFinished: m.finished,
		Aborted:         m.aborted,
		Noc:             m.torus.Stats(),
		Mem:             m.hier.Stats(),
	}
	r.PerCore = make([]CoreStat, m.cfg.Cores)
	r.Events = m.events
	r.Latencies = append([]float64(nil), m.latencies...)
	sort.Float64s(r.Latencies)
	for c := 0; c < m.cfg.Cores; c++ {
		r.PerCore[c] = CoreStat{
			Instructions: m.cores[c].instr,
			IMisses:      m.cores[c].imiss,
			Cycles:       m.cores[c].time,
		}
		if m.cores[c].time > r.Cycles {
			r.Cycles = m.cores[c].time
		}
		if m.itlb != nil {
			r.ITLBMisses += m.itlb[c].Stats().Misses
			r.DTLBMisses += m.dtlb[c].Stats().Misses
		}
		is := m.l1i[c].Stats()
		r.ICompulsory += is.Compulsory
		r.ICapacity += is.Capacity
		r.IConflict += is.Conflict
		ds := m.l1d[c].Stats()
		r.DCompulsory += ds.Compulsory
		r.DCapacity += ds.Capacity
		r.DConflict += ds.Conflict
	}
	return r
}

// ReuseTracker classifies instruction-block accesses by how many threads
// touch each block over the run, reproducing Figure 3's single/few/most
// breakdown both globally and per transaction type.
type ReuseTracker struct {
	nThreads    int
	words       int
	masks       map[uint64][]uint64 // block -> thread bitmap
	accesses    map[uint64][]uint64 // block -> per-type access count
	typeThreads map[int]int         // type -> thread count (filled lazily)
	threadType  map[int]int
	maxType     int
}

// NewReuseTracker sizes a tracker for nThreads threads.
func NewReuseTracker(nThreads int) *ReuseTracker {
	return &ReuseTracker{
		nThreads:    nThreads,
		words:       (nThreads + 63) / 64,
		masks:       make(map[uint64][]uint64),
		accesses:    make(map[uint64][]uint64),
		typeThreads: make(map[int]int),
		threadType:  make(map[int]int),
	}
}

// Record notes n instruction-block accesses by a thread.
func (rt *ReuseTracker) Record(block uint64, threadID, typ int, n uint64) {
	if _, ok := rt.threadType[threadID]; !ok {
		rt.threadType[threadID] = typ
		rt.typeThreads[typ]++
	}
	if typ > rt.maxType {
		rt.maxType = typ
	}
	mask, ok := rt.masks[block]
	if !ok {
		mask = make([]uint64, rt.words)
		rt.masks[block] = mask
	}
	mask[threadID/64] |= 1 << uint(threadID%64)

	acc, ok := rt.accesses[block]
	if !ok {
		acc = make([]uint64, rt.maxTypeSlots(typ))
		rt.accesses[block] = acc
	} else if typ >= len(acc) {
		grown := make([]uint64, rt.maxTypeSlots(typ))
		copy(grown, acc)
		acc = grown
		rt.accesses[block] = acc
	}
	acc[typ] += n
}

func (rt *ReuseTracker) maxTypeSlots(typ int) int {
	n := rt.maxType
	if typ > n {
		n = typ
	}
	return n + 1
}

// ReuseBreakdown is the Figure 3 access-ratio split: blocks touched by a
// single thread, by at most 60% of threads ("few"), or by more ("most").
type ReuseBreakdown struct {
	Single, Few, Most float64
}

// Global computes the breakdown over all threads.
func (rt *ReuseTracker) Global() ReuseBreakdown {
	var single, few, most uint64
	for block, mask := range rt.masks {
		total := rt.totalAccesses(block)
		n := popcount(mask)
		switch {
		case n <= 1:
			single += total
		case float64(n) <= 0.6*float64(rt.nThreads):
			few += total
		default:
			most += total
		}
	}
	return normalize(single, few, most)
}

// PerType computes the breakdown where each block's reuse is judged against
// the thread population of the type whose threads accessed it (access-
// weighted across types, matching the paper's per-transaction view).
func (rt *ReuseTracker) PerType() ReuseBreakdown {
	var single, few, most uint64
	for block, mask := range rt.masks {
		perType := make(map[int]int)
		for id, typ := range rt.threadType {
			if mask[id/64]&(1<<uint(id%64)) != 0 {
				perType[typ]++
			}
		}
		acc := rt.accesses[block]
		for typ, count := range acc {
			if count == 0 {
				continue
			}
			n := perType[typ]
			pop := rt.typeThreads[typ]
			switch {
			case n <= 1:
				single += count
			case float64(n) <= 0.6*float64(pop):
				few += count
			default:
				most += count
			}
		}
	}
	return normalize(single, few, most)
}

func (rt *ReuseTracker) totalAccesses(block uint64) uint64 {
	var n uint64
	for _, c := range rt.accesses[block] {
		n += c
	}
	return n
}

func normalize(single, few, most uint64) ReuseBreakdown {
	total := float64(single + few + most)
	if total == 0 {
		return ReuseBreakdown{}
	}
	return ReuseBreakdown{
		Single: float64(single) / total,
		Few:    float64(few) / total,
		Most:   float64(most) / total,
	}
}

func popcount(mask []uint64) int {
	n := 0
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	return n
}
