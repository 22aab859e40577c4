// Package sched implements the baseline scheduling policy: the
// conventional OS behaviour the paper compares against (Section 5.1).
// Transactions are assigned to cores with no regard for instruction
// locality and run to completion; with N cores, up to N threads run
// concurrently and there is no migration.
package sched

import (
	"slicc/internal/sim"
	"slicc/internal/trace"
)

// Baseline is the no-migration, run-to-completion scheduler.
type Baseline struct {
	pending []*sim.ThreadState
	started int
}

// NewBaseline returns the baseline policy.
func NewBaseline() *Baseline { return &Baseline{} }

// Name implements sim.Policy.
func (b *Baseline) Name() string { return "Base" }

// Attach implements sim.Policy.
func (b *Baseline) Attach(_ *sim.Machine, threads []*sim.ThreadState) {
	b.pending = append(b.pending[:0], threads...)
}

// NextThread hands the next pending transaction to any idle core (the
// OS's naive load balancing: an idle core always gets work if any exists).
func (b *Baseline) NextThread(core int) *sim.ThreadState {
	if b.started >= len(b.pending) {
		return nil
	}
	t := b.pending[b.started]
	b.started++
	return t
}

// OnInstr implements sim.Policy; the baseline never migrates.
func (b *Baseline) OnInstr(core int, t *sim.ThreadState, f sim.Fetch) int { return -1 }

// OnQuietRun implements sim.QuietRunObserver: OnInstr does nothing at any
// instruction, so nothing at a run of them.
func (b *Baseline) OnQuietRun(core int, t *sim.ThreadState, ops []trace.Op) {}

// OnThreadFinish implements sim.Policy.
func (b *Baseline) OnThreadFinish(core int, t *sim.ThreadState) {}

// Remaining returns the count of not-yet-started threads (for tests).
func (b *Baseline) Remaining() int { return len(b.pending) - b.started }
