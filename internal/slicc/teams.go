package slicc

import "slicc/internal/sim"

// Team scheduling for the type-aware variants (Section 4.3.2): same-type
// threads are grouped into teams; the oldest team is scheduled first; team
// size classes get different core allocations (large: all cores, medium:
// half), and small teams' threads become strays that individually fill
// idle cores.

// team is a group of same-type transactions.
type team struct {
	typ       int
	arrival   int // timestamp of the oldest thread
	threads   []*sim.ThreadState
	started   int
	finished  int
	total     int
	coreSet   map[int]bool
	active    bool
	completed bool
}

// sizeClass buckets per Section 4.3.2 relative to the worker-core count n.
type sizeClass int

const (
	smallTeam  sizeClass = iota // < 0.5N: threads become strays
	mediumTeam                  // 0.5N..1.5N: gets half the cores
	largeTeam                   // >= 1.5N (max 2N): gets all cores
)

func classify(size, n int) sizeClass {
	switch {
	case float64(size) < 0.5*float64(n):
		return smallTeam
	case float64(size) < 1.5*float64(n):
		return mediumTeam
	default:
		return largeTeam
	}
}

// teamScheduler owns team formation, activation and admission.
type teamScheduler struct {
	workers []int // usable cores (excludes the scout core under Pp)
	n       int

	pendingTeams []*team
	strayQ       []*sim.ThreadState
	active       []*team
	byThread     map[int]*team

	total int
}

// newTeamScheduler forms teams from the arrival-ordered thread list. Teams
// are capped at 2N threads (the paper's largest class); runs shorter than
// 0.5N become strays.
func newTeamScheduler(workers []int, threads []*sim.ThreadState) *teamScheduler {
	ts := &teamScheduler{
		workers:  workers,
		n:        len(workers),
		byThread: make(map[int]*team),
		total:    len(threads),
	}
	open := map[int]*team{} // type -> accumulating team
	closeTeam := func(tm *team) {
		tm.total = len(tm.threads)
		if classify(tm.total, ts.n) == smallTeam {
			// Stray threads are not grouped (Section 4.3.2).
			ts.strayQ = append(ts.strayQ, tm.threads...)
			for _, t := range tm.threads {
				delete(ts.byThread, t.ID)
			}
			return
		}
		ts.pendingTeams = append(ts.pendingTeams, tm)
	}
	for i, t := range threads {
		tm := open[t.Type]
		if tm == nil {
			tm = &team{typ: t.Type, arrival: i}
			open[t.Type] = tm
		}
		tm.threads = append(tm.threads, t)
		ts.byThread[t.ID] = tm
		if len(tm.threads) >= 2*ts.n {
			closeTeam(tm)
			delete(open, t.Type)
		}
	}
	// Close remaining partial teams in arrival order.
	for {
		var oldest *team
		for _, tm := range open {
			if oldest == nil || tm.arrival < oldest.arrival {
				oldest = tm
			}
		}
		if oldest == nil {
			break
		}
		closeTeam(oldest)
		delete(open, oldest.typ)
	}
	// Pending teams scheduled oldest-first.
	sortTeams(ts.pendingTeams)
	return ts
}

func sortTeams(teams []*team) {
	for i := 1; i < len(teams); i++ {
		for j := i; j > 0 && teams[j].arrival < teams[j-1].arrival; j-- {
			teams[j], teams[j-1] = teams[j-1], teams[j]
		}
	}
}

// refresh activates pending teams onto currently free cores.
func (ts *teamScheduler) refresh() {
	free := map[int]bool{}
	for _, c := range ts.workers {
		free[c] = true
	}
	for _, tm := range ts.active {
		for c := range tm.coreSet {
			delete(free, c)
		}
	}
	for len(ts.pendingTeams) > 0 && len(free) > 0 {
		tm := ts.pendingTeams[0]
		want := ts.n
		if classify(tm.total, ts.n) == mediumTeam {
			want = (ts.n + 1) / 2
		}
		if len(free) < want && len(ts.active) > 0 {
			// Wait for a full allocation rather than starving the oldest
			// team onto scraps while another team runs.
			break
		}
		tm.coreSet = map[int]bool{}
		for _, c := range ts.workers {
			if free[c] && len(tm.coreSet) < want {
				tm.coreSet[c] = true
				delete(free, c)
			}
		}
		tm.active = true
		ts.active = append(ts.active, tm)
		ts.pendingTeams = ts.pendingTeams[1:]
	}
}

// next admits a thread for an idle core: first from an active team owning
// the core, then from the stray queue, and finally — to keep the machine
// work-conserving, cores are "time-multiplexed among teams" — from any
// active or pending team regardless of core set.
func (ts *teamScheduler) next(core int) *sim.ThreadState {
	ts.refresh()
	for _, tm := range ts.active {
		if tm.coreSet[core] {
			if t := ts.take(tm); t != nil {
				return t
			}
		}
	}
	if len(ts.strayQ) > 0 {
		t := ts.strayQ[0]
		ts.strayQ = ts.strayQ[1:]
		return t
	}
	// Work-conserving fallback: an idle core outside every core set still
	// pulls from the oldest team with pending threads.
	for _, tm := range ts.active {
		if t := ts.take(tm); t != nil {
			return t
		}
	}
	if len(ts.pendingTeams) > 0 {
		tm := ts.pendingTeams[0]
		if t := ts.take(tm); t != nil {
			if tm.started < tm.total {
				// Partially admitted without a core set: adopt this core.
				if tm.coreSet == nil {
					tm.coreSet = map[int]bool{}
				}
				tm.coreSet[core] = true
			}
			return t
		}
	}
	return nil
}

// take pops the team's next pending thread, deactivating the team once
// fully admitted (in-flight threads finish on their own).
func (ts *teamScheduler) take(tm *team) *sim.ThreadState {
	if tm.started >= len(tm.threads) {
		return nil
	}
	t := tm.threads[tm.started]
	tm.started++
	if tm.started == tm.total {
		ts.deactivate(tm)
		if len(ts.pendingTeams) > 0 && ts.pendingTeams[0] == tm {
			ts.pendingTeams = ts.pendingTeams[1:]
		}
	}
	return t
}

// finish records a thread completion; it returns true when the thread's
// team just completed (triggering the monitor-unit reset).
func (ts *teamScheduler) finish(t *sim.ThreadState) bool {
	tm := ts.byThread[t.ID]
	if tm == nil {
		return false // stray
	}
	tm.finished++
	if tm.finished < tm.total {
		return false
	}
	tm.completed = true
	ts.deactivate(tm)
	return true
}

// deactivate removes a team from the active list (idempotent).
func (ts *teamScheduler) deactivate(tm *team) {
	for i, a := range ts.active {
		if a == tm {
			ts.active = append(ts.active[:i], ts.active[i+1:]...)
			return
		}
	}
}
