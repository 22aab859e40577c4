package sched

import (
	"slicc/internal/sim"
	"slicc/internal/trace"
)

// STEPS is a software time-multiplexing baseline after Harizopoulos &
// Ailamaki's STEPS system [9], which the paper names as SLICC's
// time-domain counterpart and future-work combination partner. Same-type
// transactions form teams pinned to one core; every thread in a team
// executes the current code *chunk* (roughly one L1-I cache's worth of
// instructions) before any thread advances to the next chunk, so a chunk
// is fetched once and reused by the whole team via rapid same-core context
// switching.
//
// Chunk boundaries are detected the hardware-friendly way: a thread yields
// after incurring ChunkMisses instruction misses during its turn (it has
// replaced about a chunk's worth of blocks) — mirroring how this
// reproduction's SLICC detects segment transitions, but switching threads
// in time instead of migrating them in space.
type STEPS struct {
	// ChunkMisses is the per-turn instruction-miss budget before yielding
	// (default 48: a fraction of the 512-block L1-I, so the team revisits
	// each chunk while it is still resident).
	ChunkMisses int
	// TeamCap bounds team size (default 16 threads).
	TeamCap int

	m       *sim.Machine
	queues  [][]*sim.ThreadState
	pending [][]*sim.ThreadState // per-core unstarted team threads
	next    []int                // per-core admission cursor
	misses  []int                // running thread's misses this turn
	live    []int                // live threads per core
}

// NewSTEPS returns a STEPS policy with default parameters.
func NewSTEPS() *STEPS { return &STEPS{} }

// Name implements sim.Policy.
func (s *STEPS) Name() string { return "STEPS" }

// Attach implements sim.Policy: teams are formed per transaction type and
// assigned to cores round-robin.
func (s *STEPS) Attach(m *sim.Machine, threads []*sim.ThreadState) {
	if s.ChunkMisses == 0 {
		s.ChunkMisses = 48
	}
	if s.TeamCap == 0 {
		s.TeamCap = 16
	}
	s.m = m
	n := m.Cores()
	s.queues = make([][]*sim.ThreadState, n)
	s.pending = make([][]*sim.ThreadState, n)
	s.next = make([]int, n)
	s.misses = make([]int, n)
	s.live = make([]int, n)

	// Group into teams of at most TeamCap same-type threads, in arrival
	// order, then deal teams to cores round-robin.
	open := map[int][]*sim.ThreadState{}
	core := 0
	flush := func(ty int) {
		team := open[ty]
		if len(team) == 0 {
			return
		}
		s.pending[core] = append(s.pending[core], team...)
		core = (core + 1) % n
		delete(open, ty)
	}
	for _, t := range threads {
		open[t.Type] = append(open[t.Type], t)
		if len(open[t.Type]) >= s.TeamCap {
			flush(t.Type)
		}
	}
	// Flush remainders in type order for determinism.
	maxType := 0
	for ty := range open {
		if ty > maxType {
			maxType = ty
		}
	}
	for ty := 0; ty <= maxType; ty++ {
		flush(ty)
	}
}

// NextThread implements sim.Policy: the core's rotation queue first, then
// admit the next unstarted thread of its teams. A core with nothing left
// steals pending work from the most loaded core to stay work-conserving.
func (s *STEPS) NextThread(core int) *sim.ThreadState {
	// Admit unstarted teammates before resuming yielded ones: a yielding
	// thread's whole point is to hand the freshly cached chunk to the next
	// team member.
	if s.next[core] < len(s.pending[core]) {
		t := s.pending[core][s.next[core]]
		s.next[core]++
		s.live[core]++
		s.misses[core] = 0
		return t
	}
	if q := s.queues[core]; len(q) > 0 {
		t := q[0]
		s.queues[core] = q[1:]
		s.misses[core] = 0
		return t
	}
	// Steal a whole unstarted tail from the core with the most pending
	// work (keeps teams together as much as possible).
	victim, most := -1, 1
	for c := range s.pending {
		if rem := len(s.pending[c]) - s.next[c]; rem > most {
			victim, most = c, rem
		}
	}
	if victim < 0 {
		return nil
	}
	t := s.pending[victim][len(s.pending[victim])-1]
	s.pending[victim] = s.pending[victim][:len(s.pending[victim])-1]
	s.live[core]++
	s.misses[core] = 0
	return t
}

// OnInstr implements sim.Policy: yield to the same core after the chunk
// budget is spent, provided another thread is waiting to reuse the chunk.
func (s *STEPS) OnInstr(core int, t *sim.ThreadState, f sim.Fetch) int {
	if f.IMiss {
		s.misses[core]++
	}
	if s.misses[core] >= s.ChunkMisses && s.waiting(core) {
		s.misses[core] = 0
		return core
	}
	return -1
}

// OnQuietRun implements sim.QuietRunObserver. A quiet instruction cannot
// miss, so OnInstr would leave misses alone; and it cannot yield, because
// the instruction before the run did not: either the budget is unspent, or
// nothing is waiting — and nothing starts to wait before this core's next
// event (only the core itself queues threads here, and other cores only
// ever steal from its pending list).
func (s *STEPS) OnQuietRun(core int, t *sim.ThreadState, ops []trace.Op) {}

// waiting reports whether the core has another runnable thread.
func (s *STEPS) waiting(core int) bool {
	return len(s.queues[core]) > 0 || s.next[core] < len(s.pending[core])
}

// OnThreadFinish implements sim.Policy.
func (s *STEPS) OnThreadFinish(core int, t *sim.ThreadState) {
	s.live[core]--
}

// EnqueueMigrated receives yielded threads back into the rotation.
func (s *STEPS) EnqueueMigrated(core int, t *sim.ThreadState) {
	s.queues[core] = append(s.queues[core], t)
}
