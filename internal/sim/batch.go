package sim

// Lockstep multi-cell batching: advance N independent machines — same
// workload, different configurations — through interleaved execution
// quanta, so the op stream each machine replays is decoded once into a
// shared table (see workload.BatchThreads) and stays resident in the
// last-level cache while every machine consumes it.
//
// Byte-identity with the scalar path holds by construction. Machines never
// share mutable state, so any interleaving *between* them is safe; *within*
// a machine, a quantum is the scalar event-horizon loop itself (runLoop)
// paused after a budget of instructions — not a reimplementation of the
// scheduling rule — and all loop state lives in the Machine, so the quantum
// boundary is invisible in the instruction interleaving.
// TestBatchMatchesScalar holds the proof obligation.

import "context"

// DefaultBatchQuantum is how many instructions RunBatch advances one
// machine before rotating to the next. A machine's model state (caches,
// directory, policy tables) is several MB; every rotation re-warms it from
// the next cache level down, so the quantum must be large enough to
// amortize that re-warm over real work. Measured on the fig7-thresholds
// sweep, 1M instructions (~0.1s of execution) recovers scalar-run locality
// while still rotating a gang many times per cell; 16K quanta cost ~15%.
const DefaultBatchQuantum = 1 << 20

// RunBatch executes the machines to completion in lockstep: round-robin
// quanta of `quantum` instructions each (0 selects DefaultBatchQuantum),
// each ending at the machine's first scheduler step at or past that count.
// Machines must be freshly built over the same workload's threads and are
// consumed by the call, exactly as Run consumes a machine. Results are
// per-machine, in input order, and bit-identical to what each machine's
// own scalar Run would have produced.
//
// Cancellation mirrors RunContext: when ctx is cancelled the pass stops at
// the next quantum boundary, unfinished machines report Aborted partial
// results, and ctx.Err() is returned alongside them.
func RunBatch(ctx context.Context, machines []*Machine, quantum uint64) ([]Result, error) {
	if quantum == 0 {
		quantum = DefaultBatchQuantum
	}
	done := make([]bool, len(machines))
	for _, m := range machines {
		m.start()
	}
	live := len(machines)
	var err error
	for live > 0 && err == nil {
		for i, m := range machines {
			if done[i] {
				continue
			}
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
				break
			}
			if m.runQuantum(quantum) {
				done[i] = true
				live--
			}
		}
	}
	if err != nil {
		for i, m := range machines {
			if !done[i] {
				m.aborted = true
			}
		}
	}
	results := make([]Result, len(machines))
	for i, m := range machines {
		results[i] = m.result()
	}
	return results, err
}

// runQuantum advances the machine to the first scheduler step at or past
// n instructions and reports whether the run has finished — all threads
// complete, or the MaxInstructions abort tripped. It is the scalar
// scheduler itself with a budget: the event-horizon loop for normal
// machines, the per-instruction scan for reference-loop ones, so a batched
// machine executes the exact instruction sequence its scalar twin would.
func (m *Machine) runQuantum(n uint64) bool {
	if m.referenceLoop {
		return m.runQuantumReference(n)
	}
	finished, _ := m.runLoop(nil, n)
	return finished
}

// runQuantumReference is the reference loop (one nextCore scan per
// instruction) bounded to n instructions, used for batched machines under
// the `slowsim` tag or UseReferenceLoop.
func (m *Machine) runQuantumReference(n uint64) bool {
	for executed := uint64(0); executed < n; {
		c := m.nextCore()
		if c < 0 {
			if !m.fillIdleCores() {
				return true
			}
			continue
		}
		executed++
		m.step(c)
		if m.cfg.MaxInstructions > 0 && m.instr >= m.cfg.MaxInstructions {
			m.aborted = true
			return true
		}
	}
	return false
}
