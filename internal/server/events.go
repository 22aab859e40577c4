package server

// Sweep event streaming: the progress tracker behind partial GET responses
// and the GET /v1/sweeps/{id}/events SSE endpoint, plus the resume
// endpoint. The design constraints:
//
//   - Replay must be lossless: a client may connect at any point — before,
//     during, after the run — and with Last-Event-ID from any previous
//     connection, and must see every event after that position exactly
//     once, ending with the terminal "done"/"error" event.
//   - The sweep must never block on a client: a subscriber that falls a
//     full buffer behind is disconnected (its channel closed), which is
//     safe precisely because replay is lossless — it reconnects with
//     Last-Event-ID and catches up from the log.
//   - Streams must terminate: finish publishes the terminal event to
//     every subscriber, right after the entry is marked done and whether
//     or not it is still tracked, so a connected client always sees the
//     end of its stream. Evicted and unknown ids get an immediate 404
//     pointing at the re-POST contract.
//
// The event log stores compact refs (type, index, flags), not payloads:
// cell metrics are kept once in the partial-result maps — which the GET
// handler needs anyway — and replay reconstructs the full event from them.

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"slicc"
	"slicc/internal/telemetry"
)

// sweepProgress accumulates one sweep run's streamed events.
type sweepProgress struct {
	mu     sync.Mutex
	total  int
	buffer int
	// refs is the replayable event log in compact form; an event's Seq is
	// its 1-based position here.
	refs []eventRef
	// completed mirrors the latest cell event's Completed count.
	completed int
	// cells/baselines hold each finished cell's metrics by index — the
	// partial results for GET, and the payload source for replay.
	cells     map[int]*slicc.SweepCellResult
	baselines map[int]*slicc.SweepCellResult
	// terminal is the final done/error event, nil while running.
	terminal *slicc.SweepEvent
	subs     map[*eventSub]struct{}
	// onDrop, if set, is called (under mu) for each subscriber cut off by
	// the slow-consumer policy — the slicc_sse_dropped_total feed.
	onDrop func()
}

// eventRef is one logged event without its payload.
type eventRef struct {
	typ       string
	index     int
	storeHit  bool
	completed int
}

// eventSub is one live SSE subscriber. Its channel is closed by the
// publisher — at the terminal event, or early when the subscriber lags a
// full buffer behind (the slow-consumer policy).
type eventSub struct {
	ch chan slicc.SweepEvent
}

func newSweepProgress(total, buffer int) *sweepProgress {
	return &sweepProgress{
		total:     total,
		buffer:    buffer,
		cells:     make(map[int]*slicc.SweepCellResult),
		baselines: make(map[int]*slicc.SweepCellResult),
		subs:      make(map[*eventSub]struct{}),
	}
}

// publish logs one engine event, stamps its Seq, and fans it out to live
// subscribers. It is the emit callback of Engine.SweepStream, which calls
// it serially.
func (p *sweepProgress) publish(ev slicc.SweepEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ev.Seq = len(p.refs) + 1
	p.refs = append(p.refs, eventRef{typ: ev.Type, index: ev.Index, storeHit: ev.StoreHit, completed: ev.Completed})
	if ev.Cell != nil {
		switch ev.Type {
		case slicc.SweepEventCell:
			p.cells[ev.Index] = ev.Cell
			p.completed = ev.Completed
		case slicc.SweepEventBaseline:
			p.baselines[ev.Index] = ev.Cell
		}
	}
	p.broadcastLocked(ev)
}

// finish appends the terminal event and ends every live subscription. It
// runs before the entry's done channel closes, so no observer can see a
// completed sweep whose stream still dangles.
func (p *sweepProgress) finish(res *slicc.SweepResult, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ev := slicc.SweepEvent{Seq: len(p.refs) + 1, Completed: p.completed, Total: p.total}
	if err != nil {
		ev.Type, ev.Status, ev.Error = slicc.SweepEventError, "failed", err.Error()
	} else {
		ev.Type, ev.Status = slicc.SweepEventDone, "done"
		if res != nil {
			ev.Completed = len(res.Cells)
		}
	}
	p.refs = append(p.refs, eventRef{typ: ev.Type, completed: ev.Completed})
	p.terminal = &ev
	p.broadcastLocked(ev)
	for sub := range p.subs {
		close(sub.ch)
		delete(p.subs, sub)
	}
}

// broadcastLocked fans one event out; a subscriber whose buffer is full is
// cut off (closed channel, no terminal event) and replays on reconnect.
func (p *sweepProgress) broadcastLocked(ev slicc.SweepEvent) {
	for sub := range p.subs {
		select {
		case sub.ch <- ev:
		default:
			close(sub.ch)
			delete(p.subs, sub)
			if p.onDrop != nil {
				p.onDrop()
			}
		}
	}
}

// subscribe returns the replay of logged events after position `after`
// and, unless the stream is already terminal (replay then ends with the
// terminal event), a registered live subscription for what follows.
// Registration and replay happen under one lock acquisition, so no event
// can fall between them.
func (p *sweepProgress) subscribe(after int) ([]slicc.SweepEvent, *eventSub) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if after < 0 {
		after = 0
	}
	if after > len(p.refs) {
		after = len(p.refs)
	}
	replay := make([]slicc.SweepEvent, 0, len(p.refs)-after)
	for i := after; i < len(p.refs); i++ {
		replay = append(replay, p.eventAtLocked(i))
	}
	if p.terminal != nil {
		return replay, nil
	}
	sub := &eventSub{ch: make(chan slicc.SweepEvent, p.buffer)}
	p.subs[sub] = struct{}{}
	return replay, sub
}

// eventAtLocked reconstructs the full event at log position i (0-based).
func (p *sweepProgress) eventAtLocked(i int) slicc.SweepEvent {
	r := p.refs[i]
	ev := slicc.SweepEvent{
		Seq: i + 1, Type: r.typ, Index: r.index,
		StoreHit: r.storeHit, Completed: r.completed, Total: p.total,
	}
	switch r.typ {
	case slicc.SweepEventCell:
		ev.Cell = p.cells[r.index]
	case slicc.SweepEventBaseline:
		ev.Cell = p.baselines[r.index]
	default:
		if p.terminal != nil {
			ev.Status, ev.Error = p.terminal.Status, p.terminal.Error
		}
	}
	return ev
}

func (p *sweepProgress) unsubscribe(sub *eventSub) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.subs, sub)
}

// counts returns finished and total result cells.
func (p *sweepProgress) counts() (completed, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.completed, p.total
}

// partialCells returns the cells finished so far in expansion order.
func (p *sweepProgress) partialCells() []slicc.SweepCellResult {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx := make([]int, 0, len(p.cells))
	for i := range p.cells {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make([]slicc.SweepCellResult, 0, len(idx))
	for _, i := range idx {
		out = append(out, *p.cells[i])
	}
	return out
}

// handleSweepEvents streams a sweep's events as Server-Sent Events: the
// replay of everything after the client's Last-Event-ID, then the live
// tail, ending with the terminal "done"/"error" event. See docs/SERVICE.md
// for the wire format and reconnect semantics.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	e, ok := s.sweeps[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, r, http.StatusNotFound, fmt.Sprintf(
			"unknown sweep %q (evicted or never submitted; re-POST the spec — ids are content keys and finished cells resume from the store)", id))
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, r, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	replay, sub := e.prog.subscribe(lastEventID(r))
	if sub != nil {
		s.metrics.sseSubscribers.Inc()
		defer s.metrics.sseSubscribers.Dec()
		defer e.prog.unsubscribe(sub)
	}
	for _, ev := range replay {
		if writeSSE(w, ev) != nil {
			return
		}
	}
	fl.Flush()
	if sub == nil {
		return // the replay ended with the terminal event
	}
	heartbeat := time.NewTicker(s.opts.Heartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case ev, open := <-sub.ch:
			if !open {
				// Cut off as a slow consumer; the client reconnects with
				// Last-Event-ID and replays what it missed.
				return
			}
			if writeSSE(w, ev) != nil {
				return
			}
			fl.Flush()
			if ev.Type == slicc.SweepEventDone || ev.Type == slicc.SweepEventError {
				return
			}
		case <-heartbeat.C:
			if _, err := io.WriteString(w, ": keep-alive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			// Shutdown cancels the run; its "error" terminal is already on
			// its way to sub.ch or the connection simply ends here.
			return
		}
	}
}

// handleSweepResume retries a tracked *failed* sweep in place; running and
// done sweeps are a no-op returning current state. Unknown ids 404: after
// a server restart there is no entry to resume — clients re-POST the spec,
// whose id is its content key, and every previously finished cell comes
// back from the store without executing. That store-hit replay, not a
// checkpoint file, is the resume mechanism.
func (s *Server) handleSweepResume(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	e, ok := s.sweeps[id]
	restarted := false
	if ok && e.failed() {
		e = s.startSweepLocked(id, e.spec, telemetry.RequestID(r.Context()))
		restarted = true
	}
	s.mu.Unlock()
	if restarted {
		telemetry.Logger(r.Context()).Info("sweep resume", slog.String("sweep_id", id))
	}
	if !ok {
		writeError(w, r, http.StatusNotFound, fmt.Sprintf(
			"unknown sweep %q — nothing to resume; re-POST the spec (ids are content keys, finished cells are store hits)", id))
		return
	}
	if boolParam(r, "wait") {
		select {
		case <-e.done:
		case <-time.After(s.opts.Timeout):
		case <-r.Context().Done():
		case <-s.baseCtx.Done():
		}
	}
	resp := e.response()
	code := http.StatusOK
	if restarted && resp.Status == "running" {
		code = http.StatusAccepted
	}
	writeJSON(w, code, resp)
}

// lastEventID extracts the SSE resume position: the standard Last-Event-ID
// reconnect header, or ?last_event_id= for hand-driven clients. Absent or
// malformed means replay from the start — always safe, never an error.
func lastEventID(r *http.Request) int {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("last_event_id")
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// writeSSE writes one event in SSE wire format: the event's type as the
// SSE event name, its Seq as the id (what Last-Event-ID echoes back), and
// its JSON as the data line.
func writeSSE(w io.Writer, ev slicc.SweepEvent) error {
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Seq, b)
	return err
}
