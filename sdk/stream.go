package sdk

// The sweep event stream client: an iterator over GET
// /v1/sweeps/{id}/events that hides SSE framing and reconnects. Losing a
// connection is not an error here — Next redials with Last-Event-ID set
// to the last delivered seq, the service replays the gap losslessly, and
// iteration continues as if nothing happened. Only three things end a
// stream: the terminal done/error event (then io.EOF), the context, or
// the service forgetting the sweep (ErrSweepGone, service restart — see
// WatchSweep for the recovery).

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"slicc"
	"slicc/internal/sweep"
)

// SweepStream iterates a sweep's events. Create one with
// Client.StreamSweep, consume with Next, and Close when abandoning the
// stream early (Next's terminal io.EOF closes it for you).
type SweepStream struct {
	c       *Client
	ctx     context.Context
	id      string
	lastSeq int

	resp *http.Response
	br   *bufio.Reader
	done bool
}

// StreamSweep opens the sweep's event stream starting from the beginning.
// The first connection is made eagerly so unknown ids fail here (wrapping
// ErrSweepGone) rather than on the first Next.
func (c *Client) StreamSweep(ctx context.Context, id string) (*SweepStream, error) {
	st := &SweepStream{c: c, ctx: ctx, id: id}
	if err := st.connect(); err != nil {
		return nil, err
	}
	return st, nil
}

// connect dials the events endpoint with the current resume position.
func (st *SweepStream) connect() error {
	url := fmt.Sprintf("%s/v1/sweeps/%s/events", st.c.baseURL, st.id)
	req, err := http.NewRequestWithContext(st.ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if st.lastSeq > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(st.lastSeq))
	}
	req.Header.Set("X-Request-ID", requestID(st.ctx))
	resp, err := st.c.http.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return sweepGone(decodeAPIError(resp))
	}
	st.resp = resp
	st.br = bufio.NewReader(resp.Body)
	return nil
}

// reconnect closes the broken connection and redials with backoff until
// the retry budget or the context runs out. A 404 (sweep gone) is
// returned immediately — redialing cannot fix it.
func (st *SweepStream) reconnect() error {
	st.closeConn()
	delay := st.c.backoffMin
	deadline := time.Now().Add(st.c.retryBudget)
	for {
		err := st.connect()
		if err == nil || errors.Is(err, ErrSweepGone) || st.ctx.Err() != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sdk: stream reconnect budget exhausted: %w", err)
		}
		select {
		case <-time.After(delay):
		case <-st.ctx.Done():
			return st.ctx.Err()
		}
		if delay *= 2; delay > st.c.backoffMax {
			delay = st.c.backoffMax
		}
	}
}

// Next returns the next event. After the terminal done/error event has
// been delivered, Next returns io.EOF. Dropped connections reconnect
// transparently (Last-Event-ID replay keeps delivery exactly-once);
// ErrSweepGone means the service no longer knows the sweep and the caller
// should re-POST the spec (or use WatchSweep, which does).
func (st *SweepStream) Next() (*slicc.SweepEvent, error) {
	if st.done {
		return nil, io.EOF
	}
	for {
		ev, err := readEvent(st.br)
		if err != nil {
			if st.ctx.Err() != nil {
				st.Close()
				return nil, st.ctx.Err()
			}
			// Connection lost mid-stream (server kill, slow-consumer cut,
			// network): resume from the last delivered seq.
			if rerr := st.reconnect(); rerr != nil {
				st.Close()
				return nil, rerr
			}
			continue
		}
		// The server replays from Last-Event-ID, so a duplicate seq can
		// only appear if a write raced the cut; drop anything not ahead.
		if ev.Seq <= st.lastSeq {
			continue
		}
		st.lastSeq = ev.Seq
		if ev.Type == slicc.SweepEventDone || ev.Type == slicc.SweepEventError {
			st.done = true
			st.Close()
		}
		return &ev, nil
	}
}

// Close releases the stream's connection. Safe to call more than once.
func (st *SweepStream) Close() error {
	st.closeConn()
	return nil
}

func (st *SweepStream) closeConn() {
	if st.resp != nil {
		st.resp.Body.Close()
		st.resp = nil
		st.br = nil
	}
}

// readEvent parses one SSE event (skipping ":" keep-alive comments) from
// the wire. Any read error surfaces as-is for the caller's reconnect
// logic.
func readEvent(br *bufio.Reader) (slicc.SweepEvent, error) {
	var (
		name string
		id   int
		data []byte
	)
	if br == nil {
		return slicc.SweepEvent{}, io.EOF
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return slicc.SweepEvent{}, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if name == "" && data == nil {
				continue
			}
			var ev slicc.SweepEvent
			if err := json.Unmarshal(data, &ev); err != nil {
				return ev, fmt.Errorf("sdk: malformed event data %q: %w", data, err)
			}
			if ev.Seq == 0 {
				ev.Seq = id
			}
			return ev, nil
		case strings.HasPrefix(line, ":"):
			// keep-alive
		case strings.HasPrefix(line, "event:"):
			name = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "id:"):
			id, _ = strconv.Atoi(strings.TrimSpace(line[len("id:"):]))
		case strings.HasPrefix(line, "data:"):
			data = []byte(strings.TrimSpace(line[len("data:"):]))
		}
	}
}

// WatchSweep submits the spec and streams its events to onEvent until the
// sweep completes, returning the final result. It survives everything the
// service's resume contract covers:
//
//   - dropped connections: the stream redials with Last-Event-ID and the
//     server replays the gap;
//   - service restarts and evictions (ErrSweepGone, connection refused):
//     the spec is re-POSTed — same content-key id, finished cells come
//     back as store hits — and the new stream is deduplicated against
//     events already delivered, by cell index, so onEvent still sees every
//     cell and baseline exactly once;
//   - failed runs: the sweep is resumed in place (again store-hitting
//     completed cells) up to a bounded number of attempts.
//
// The result is assembled from the cells and baselines the stream
// delivered (sweep.Assemble), against the spec the service echoed on
// submit: it equals the result GET /v1/sweeps/{id} serves, without
// fetching it. A stream that reaches "done" with an index missing, or
// with a cell the spec does not expand to, is an error.
//
// onEvent may be nil. Event Seq values are transport positions and restart
// with the service; identity across reconnects is the (type, index) pair.
func (c *Client) WatchSweep(ctx context.Context, spec slicc.SweepSpec, onEvent func(slicc.SweepEvent)) (*slicc.SweepResult, error) {
	// The delivered rows by index: presence is the exactly-once check, and
	// at "done" they are the result. Rows are copies, so onEvent cannot
	// change the result; an event without a cell keeps a zero row, which
	// assembly rejects as foreign.
	cells := map[int]slicc.SweepCellResult{}
	baselines := map[int]slicc.SweepCellResult{}
	deliver := func(ev slicc.SweepEvent) {
		rows := cells
		if ev.Type == slicc.SweepEventBaseline {
			rows = baselines
		}
		if _, ok := rows[ev.Index]; ok {
			return
		}
		var row slicc.SweepCellResult
		if ev.Cell != nil {
			row = *ev.Cell
		}
		rows[ev.Index] = row
		if onEvent != nil {
			onEvent(ev)
		}
	}

	failures := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sw, err := c.SubmitSweep(ctx, spec, false)
		if err != nil {
			// The service may still be coming back up; retry on the same
			// backoff budget streams use.
			if failures++; failures > c.watchRetries {
				return nil, err
			}
			if serr := sleepCtx(ctx, c.backoffMax); serr != nil {
				return nil, serr
			}
			continue
		}
		werr := c.watchOnce(ctx, sw.ID, deliver)
		switch {
		case werr == nil:
			res, err := sweep.Assemble(sw.Spec, cells, baselines)
			if err != nil {
				return nil, fmt.Errorf("sdk: sweep %s: %w", sw.ID, err)
			}
			return res, nil
		case errors.Is(werr, ErrSweepGone):
			// Restart/eviction: loop re-POSTs the spec. Not counted as a
			// failure — the run itself didn't fail.
			continue
		case ctx.Err() != nil:
			return nil, ctx.Err()
		default:
			if failures++; failures > c.watchRetries {
				return nil, werr
			}
			if serr := sleepCtx(ctx, c.backoffMin); serr != nil {
				return nil, serr
			}
		}
	}
}

// watchOnce streams one submission until its terminal event, handing cell
// and baseline events to deliver, and returns nil at "done". A terminal
// "error" event surfaces as an error (the outer loop decides whether to
// resume).
func (c *Client) watchOnce(ctx context.Context, id string, deliver func(slicc.SweepEvent)) error {
	st, err := c.StreamSweep(ctx, id)
	if err != nil {
		return err
	}
	defer st.Close()
	for {
		ev, err := st.Next()
		if err != nil {
			return err
		}
		switch ev.Type {
		case slicc.SweepEventCell, slicc.SweepEventBaseline:
			deliver(*ev)
		case slicc.SweepEventError:
			return fmt.Errorf("sweep failed: %s", ev.Error)
		case slicc.SweepEventDone:
			return nil
		}
	}
}

// sleepCtx sleeps d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
