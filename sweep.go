package slicc

import (
	"context"
	"fmt"

	"slicc/internal/sweep"
)

// SweepSpec declares a parameter sweep: lists (or JSON ranges) over
// workloads, policies, machine shapes and SLICC thresholds that expand
// into the cross product of simulations. The zero value sweeps a single
// cell (tpcc1 under slicc-sw on the Table 2 machine); Preset names a
// predefined study (SweepPresets) that explicit fields override. Specs are
// JSON documents first: the same bytes drive Engine.Sweep, `experiments
// -sweep spec.json` and sliccd's POST /v1/sweeps.
type SweepSpec = sweep.Spec

// SweepResult is a completed sweep: per-cell metrics in deterministic
// expansion order, baseline references, and the objective-best cell. It
// renders as JSON, CSV (WriteCSV) or an aligned table (SweepTable).
type SweepResult = sweep.Result

// SweepCellResult is one sweep cell with its measured metrics.
type SweepCellResult = sweep.CellResult

// SweepEvent is one streamed sweep happening: a completed cell or baseline
// (types "cell"/"baseline", carrying the finished SweepCellResult and
// whether it was served from the persistent store), or a terminal
// "done"/"error" marker on transports that need one (sliccd's SSE stream;
// SweepStream itself signals completion by returning). It is also the SSE
// wire format: sliccd serializes SweepEvents as event data and uses Seq as
// the event id.
type SweepEvent = sweep.Event

// SweepEvent types.
const (
	SweepEventCell     = sweep.EventCell
	SweepEventBaseline = sweep.EventBaseline
	SweepEventDone     = sweep.EventDone
	SweepEventError    = sweep.EventError
)

// SweepIntAxis / SweepFloatAxis are sweep dimensions; construct them with
// SweepInts/SweepIntRange/SweepFloats, or in JSON as a list, a bare
// number, or {"from": lo, "to": hi, "step": s}.
type (
	SweepIntAxis   = sweep.IntAxis
	SweepFloatAxis = sweep.FloatAxis
)

// SweepInts builds an integer sweep axis from explicit values.
func SweepInts(vs ...int) SweepIntAxis { return sweep.Ints(vs...) }

// SweepIntRange builds an inclusive integer axis from..to by step.
func SweepIntRange(from, to, step int) (SweepIntAxis, error) {
	return sweep.IntRange(from, to, step)
}

// SweepFloats builds a float sweep axis from explicit values.
func SweepFloats(vs ...float64) SweepFloatAxis { return sweep.Floats(vs...) }

// SweepBool sets a SweepSpec optional boolean (e.g. ExactSearch, where an
// explicit false must be distinguishable from unset to override a preset).
func SweepBool(v bool) *bool { return sweep.Bool(v) }

// SweepPresets lists the named sweep presets ("fig7-thresholds",
// "fig8-dilution", "cache-sizing", "scenario-families", "core-scaling").
func SweepPresets() []string { return sweep.Presets() }

// Sweep expands the spec and runs every cell on the engine's shared pool,
// with the engine's full memoization stack: cells identical to earlier
// simulations — from other sweeps, experiments, Run calls, or the
// persistent store — do not execute again, and a store-warmed rerun of a
// whole sweep executes nothing. On a distributed engine cells that miss
// the store run on the worker fleet. Output is deterministic for a given
// spec at any worker count. Cancelling ctx aborts in-flight cells.
func (e *Engine) Sweep(ctx context.Context, spec SweepSpec) (*SweepResult, error) {
	return sweep.RunStreamVia(ctx, e.pool, spec, e.remote, nil)
}

// SweepStream is Sweep with a per-cell completion callback: emit receives
// one event per finished cell and baseline as it lands. Emission order is
// scheduling-dependent but event content is deterministic — a cell's event
// waits for its group baseline, so the Speedup it carries is final — and
// the returned result is identical to Sweep's. A store-warmed rerun — the
// resume case — replays every cell instantly with StoreHit set. emit is
// called serially and must return promptly.
func (e *Engine) SweepStream(ctx context.Context, spec SweepSpec, emit func(SweepEvent)) (*SweepResult, error) {
	return sweep.RunStreamVia(ctx, e.pool, spec, e.remote, emit)
}

// SweepTable renders a sweep result as an aligned per-cell table, with the
// objective-best cell called out in the note.
func SweepTable(r *SweepResult) ExperimentTable {
	title := "Sweep"
	if r.Name != "" {
		title = fmt.Sprintf("Sweep — %s", r.Name)
	}
	note := fmt.Sprintf("%d cells, objective %s.", len(r.Cells), r.Objective)
	if best := r.Best(); best != nil {
		note = fmt.Sprintf("%d cells; best by %s: %s/%s", len(r.Cells), r.Objective, best.Workload, best.Policy)
		switch r.Objective {
		case "speedup":
			note += fmt.Sprintf(" at %.3fx", best.Speedup)
		case "cycles":
			note += fmt.Sprintf(" at %.0f cycles", best.Cycles)
		case "impki":
			note += fmt.Sprintf(" at %.2f I-MPKI", best.IMPKI)
		case "dmpki":
			note += fmt.Sprintf(" at %.2f D-MPKI", best.DMPKI)
		}
		note += fmt.Sprintf(" (row %d).", r.BestIndex+1)
	}
	return ExperimentTable{Title: title, Note: note, Header: r.Header(), Rows: r.Rows()}
}
