package sweep

// Streaming execution: RunStream is Run with a per-cell completion
// callback, the layer beneath sliccd's SSE endpoint and the SDK's sweep
// watcher. Cells complete in scheduling order, but every event's *content*
// is deterministic: a cell's event is held until its group baseline has
// landed, so the Speedup it carries is final, and the final Result is
// assembled by the same aggregation the batch paths use — byte-identical
// to Run's for the same spec.

import (
	"context"
	"log/slog"
	"sync"

	"slicc/internal/runner"
	"slicc/internal/telemetry"
)

// Event types.
const (
	// EventCell reports one completed result cell.
	EventCell = "cell"
	// EventBaseline reports one completed per-group baseline reference.
	EventBaseline = "baseline"
	// EventDone / EventError terminate a sweep's event stream. RunStream
	// never emits them itself (its return is the terminal signal); they
	// exist for transports — sliccd's SSE stream ends with one.
	EventDone  = "done"
	EventError = "error"
)

// Event is one streamed sweep happening. Cell events carry the finished
// cell with its final metrics (including Speedup, already resolved against
// the group baseline); terminal events carry Status and optionally Error.
type Event struct {
	// Seq numbers the event within its stream, assigned by the transport
	// (sliccd uses it as the SSE id for Last-Event-ID replay); 0 when the
	// event comes straight from RunStream.
	Seq int `json:"seq,omitempty"`
	// Type is EventCell, EventBaseline, EventDone or EventError.
	Type string `json:"type"`
	// Index is the cell's position in Result.Cells (EventCell) or
	// Result.Baselines (EventBaseline) — expansion order, spec-determined.
	Index int `json:"index"`
	// StoreHit reports that the cell was served by the persistent store
	// rather than executed — every replayed cell of a resumed sweep.
	StoreHit bool `json:"store_hit,omitempty"`
	// Completed counts result cells finished so far (baselines excluded);
	// Total is len(Result.Cells).
	Completed int `json:"completed"`
	Total     int `json:"total"`
	// Cell is the finished cell (EventCell/EventBaseline only).
	Cell *CellResult `json:"cell,omitempty"`
	// Status ("done" or "failed") and Error describe terminal events.
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// RunStream executes the sweep like Run, invoking emit for each completed
// cell and baseline as it lands. Emission order is scheduling-dependent,
// but event content is not: a cell's event waits for its group baseline so
// the Speedup it reports is final, every index is emitted exactly once,
// and Completed increments 1..Total across cell events. emit is called
// serially. The returned Result is identical to Run's for the same spec.
func RunStream(ctx context.Context, pool *runner.Pool, spec Spec, emit func(Event)) (*Result, error) {
	return RunStreamVia(ctx, pool, spec, nil, emit)
}

// RunStreamVia is RunStream with an optional runner.Remote: cells (and
// baselines) that miss the persistent store are executed by the worker
// fleet instead of the local pool, with results carried back through the
// store. Events, aggregation and the final Result are identical to
// RunStream's — distribution changes where cells run, not what they
// produce.
func RunStreamVia(ctx context.Context, pool *runner.Pool, spec Spec, remote runner.Remote, emit func(Event)) (*Result, error) {
	norm, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	ex, err := norm.expand()
	if err != nil {
		return nil, err
	}
	jobs := make([]runner.Job, 0, len(ex.jobs)+len(ex.baseJobs))
	jobs = append(jobs, ex.jobs...)
	jobs = append(jobs, ex.baseJobs...)
	ctx, sp := telemetry.StartSpan(ctx, "sweep.run",
		slog.Int("cells", len(ex.cells)), slog.Int("jobs", len(jobs)))
	defer sp.End()

	var (
		mu        sync.Mutex
		completed int
		baseDone  = make([]bool, len(ex.baseCells))
		baseCyc   = make([]float64, len(ex.baseCells))
		// held buffers finished cells whose group baseline is still
		// running; the baseline's completion flushes them.
		held = make(map[int][]Event)
	)
	total := len(ex.cells)
	emitCell := func(ev Event) {
		completed++
		ev.Completed = completed
		emit(ev)
	}
	onDone := func(i int, rr runner.Result, storeHit bool) {
		mu.Lock()
		defer mu.Unlock()
		if i < len(ex.cells) {
			cr := cellResult(ex.cells[i], rr)
			ev := Event{Type: EventCell, Index: i, StoreHit: storeHit, Total: total, Cell: &cr}
			bi := ex.baseIndex[i]
			if bi >= 0 && !baseDone[bi] {
				held[bi] = append(held[bi], ev)
				return
			}
			if bi >= 0 && cr.Cycles > 0 {
				cr.Speedup = baseCyc[bi] / cr.Cycles
			}
			emitCell(ev)
			return
		}
		b := i - len(ex.cells)
		cr := cellResult(ex.baseCells[b], rr)
		cr.Speedup = 1
		baseDone[b], baseCyc[b] = true, cr.Cycles
		emit(Event{Type: EventBaseline, Index: b, StoreHit: storeHit, Completed: completed, Total: total, Cell: &cr})
		for _, ev := range held[b] {
			if ev.Cell.Cycles > 0 {
				ev.Cell.Speedup = cr.Cycles / ev.Cell.Cycles
			}
			emitCell(ev)
		}
		delete(held, b)
	}
	if emit == nil {
		onDone = nil
	}
	rs, err := pool.RunEachVia(ctx, jobs, remote, onDone)
	if err != nil {
		return nil, err
	}
	return aggregate(norm, ex, rs), nil
}
