// Package server exposes the slicc simulation engine over HTTP: the
// sliccd front door. One shared slicc.Engine (with its in-memory dedup and
// optional persistent result store) serves every request, so identical
// work — across requests, across clients, and with a store across server
// restarts — executes once.
//
// # API
//
//	POST /v1/simulations        submit a slicc.Config (JSON body); returns
//	                            the content-keyed job id. Identical
//	                            submissions coalesce onto one execution.
//	                            ?wait=1 blocks (within the request timeout)
//	                            for the result.
//	GET  /v1/simulations/{id}   result or status of a submitted simulation.
//	POST /v1/sweeps             submit a slicc.SweepSpec (JSON body); the
//	                            sweep's cells run on the shared engine, so
//	                            they dedup against everything else and
//	                            persist in the store. Identical specs
//	                            coalesce onto one run; ?wait=1 blocks.
//	GET  /v1/sweeps/{id}        result or status of a submitted sweep,
//	                            with completed/total progress and partial
//	                            cells while running (?format=csv or
//	                            ?format=text render the completed cells).
//	GET  /v1/sweeps/{id}/events Server-Sent Events stream of the sweep:
//	                            lossless replay of finished cells, live
//	                            tail, terminal done/error event;
//	                            Last-Event-ID resumes after a reconnect.
//	POST /v1/sweeps/{id}/resume retry a tracked failed sweep in place;
//	                            finished cells are store hits. After a
//	                            server restart, re-POST the spec instead
//	                            (ids are content keys).
//	GET  /v1/experiments/{id}   run one of the paper's experiments and
//	                            return its rendered tables (?quick=1,
//	                            &seed=N, &format=text).
//	GET  /v1/stats              engine work counters (executions, dedup and
//	                            store hits), store stats, queue stats on
//	                            distributed control planes, and uptime.
//	POST /v1/queue/lease        distributed mode only (Options.Queue): the
//	POST /v1/queue/{id}/...     worker fleet's lease/heartbeat/complete/
//	GET  /v1/queue/dead         fail protocol and DLQ inspection — see
//	                            queue.go and docs/SERVICE.md.
//	GET  /metrics               Prometheus text-format metrics.
//	GET  /healthz               readiness: probes the result store for
//	                            writability; degraded stores answer 503.
//
// Every error is a JSON object {"error": "...", "request_id": "..."} with
// a meaningful status code. Every response carries an X-Request-ID header
// (echoing the client's, if well-formed) matching the request's access
// log line. See docs/SERVICE.md for the full reference.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"slicc"
	"slicc/internal/queue"
	"slicc/internal/telemetry"
)

// Options configures a Server.
type Options struct {
	// Timeout bounds synchronous request handling: experiment runs and
	// ?wait=1 simulation waits are cancelled when it expires (default
	// 2 minutes). Submitted simulations keep running in the background
	// after their submitting request times out.
	Timeout time.Duration
	// EventBuffer is the per-subscriber buffer of a sweep SSE stream
	// (default 256 events). A subscriber that falls this far behind is
	// disconnected rather than blocking the sweep or buffering without
	// bound; it reconnects with Last-Event-ID and replays losslessly.
	EventBuffer int
	// Heartbeat is the interval between SSE comment keep-alives on idle
	// event streams (default 30s), so proxies don't cut long quiet cells.
	Heartbeat time.Duration
	// MaxTrackedSweeps bounds the in-memory sweep map (default 256): past
	// it the oldest *completed* sweeps are dropped. Their event streams
	// have already delivered a terminal event (streams end at completion),
	// their cells persist in the store, and their ids poll as 404.
	MaxTrackedSweeps int
	// Logger receives the server's structured logs: one access line per
	// request, sweep lifecycle events, and (at debug level) spans and
	// per-cell completions. Nil discards everything.
	Logger *slog.Logger
	// Metrics is the registry /metrics exposes. Nil gets a fresh registry,
	// which is almost always right — sharing one registry between servers
	// panics on the second server's sampled-family registrations.
	Metrics *telemetry.Registry
	// Pprof mounts net/http/pprof under /debug/pprof/ when true. Off by
	// default: profiles expose internals, so enabling is a deployment
	// decision (sliccd -pprof).
	Pprof bool
	// NoResponseCache disables caching of marshaled response bytes for
	// completed simulations and sweeps (see respcache.go). Conditional
	// GETs (ETag / If-None-Match → 304) work either way; the switch
	// exists for A/B measurement and memory-constrained deployments.
	NoResponseCache bool
	// Queue, when set, mounts the distributed-execution queue API
	// (/v1/queue/*) over it and adds the slicc_queue_* metric families
	// and the stats queue block. The caller owns the queue (sliccd opens
	// and closes it alongside the engine); the server only serves it.
	Queue *queue.Queue
}

func (o Options) withDefaults() Options {
	if o.Timeout == 0 {
		o.Timeout = 2 * time.Minute
	}
	if o.EventBuffer <= 0 {
		o.EventBuffer = 256
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 30 * time.Second
	}
	if o.MaxTrackedSweeps <= 0 {
		o.MaxTrackedSweeps = 256
	}
	return o
}

// Server routes HTTP requests onto one shared engine.
type Server struct {
	eng  *slicc.Engine
	opts Options
	// sweepRun executes one sweep, publishing its events as they land. It
	// is Engine.SweepStream in production; tests substitute a scripted
	// implementation to control event timing and inject failures.
	sweepRun func(ctx context.Context, spec slicc.SweepSpec, emit func(slicc.SweepEvent)) (*slicc.SweepResult, error)

	// baseCtx parents every simulation execution; Close cancels it so
	// in-flight simulations abort during shutdown.
	baseCtx context.Context
	cancel  context.CancelFunc
	// running tracks in-flight simulation goroutines; Close waits for them
	// so the engine (and its store) can be closed safely afterwards.
	running sync.WaitGroup

	// logger is never nil (a discard logger stands in); metrics holds the
	// registry plus the handles the request path updates; tracer turns
	// ctx spans into debug logs and the span-duration histogram.
	logger  *slog.Logger
	metrics *serverMetrics
	tracer  *telemetry.Tracer
	start   time.Time
	// src is what Server.snapshot reads (telemetry.go); set once in New.
	src sources

	mu   sync.Mutex
	sims map[string]*simEntry
	// order is the insertion order of sims, for bounded-memory eviction of
	// completed entries.
	order []string

	sweeps     map[string]*sweepEntry
	sweepOrder []string
}

// maxTrackedSims bounds the service-level result map: past this, the
// oldest *completed* entries are dropped (their results persist in the
// store if one is configured; a dropped id simply polls as 404).
const maxTrackedSims = 4096

// (Sweeps are bounded the same way by Options.MaxTrackedSweeps — default
// 256, lower than sims because sweep results are cell tables, KBs not
// bytes; the underlying simulations persist in the store regardless.)

// simEntry is one content-keyed simulation accepted by the service. The
// entry outlives its submitting request: status is poll-able until the
// server exits.
type simEntry struct {
	id   string
	cfg  slicc.Config
	done chan struct{} // closed when result/err are valid

	result slicc.Result
	err    error
	// resp caches the marshaled bytes of the completed (done, non-failed)
	// entry — immutable, like the result it renders.
	resp respCache
}

// New builds a Server over eng. The caller retains ownership of the
// engine; closing the Server stops in-flight simulations but does not
// close the engine.
func New(eng *slicc.Engine, opts Options) *Server {
	opts = opts.withDefaults()
	logger := opts.Logger
	if logger == nil {
		logger = telemetry.NopLogger()
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Server{
		eng:     eng,
		opts:    opts,
		logger:  logger,
		metrics: newServerMetrics(reg),
		start:   time.Now(),
	}
	s.tracer = &telemetry.Tracer{
		Logger: logger,
		OnSpan: func(name string, d time.Duration) {
			reg.Histogram("slicc_span_duration_seconds",
				"Traced span durations by span name.", nil,
				telemetry.L("span", name)).Observe(d.Seconds())
		},
	}
	// Background work (sims, sweeps) runs under baseCtx, which outlives the
	// submitting request; the tracer and logger ride along so engine-side
	// spans are recorded, and each launch attaches its requester's ID.
	ctx, cancel := context.WithCancel(context.Background())
	ctx = telemetry.WithLogger(ctx, logger)
	ctx = telemetry.WithTracer(ctx, s.tracer)
	s.baseCtx, s.cancel = ctx, cancel
	s.sims = make(map[string]*simEntry)
	s.sweeps = make(map[string]*sweepEntry)
	s.sweepRun = func(ctx context.Context, spec slicc.SweepSpec, emit func(slicc.SweepEvent)) (*slicc.SweepResult, error) {
		return eng.SweepStream(ctx, spec, emit)
	}
	s.registerMetrics()
	return s
}

// Close aborts in-flight simulations and waits for their goroutines to
// drain, so the caller may close the engine immediately afterwards. It
// does not close the engine itself.
func (s *Server) Close() error {
	s.cancel()
	s.running.Wait()
	return nil
}

// Handler returns the server's routing handler. Every route runs under
// the telemetry middleware, labelled by its registered pattern (bounded
// cardinality — patterns, not paths, become metric labels).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	add := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(route, h))
	}
	add("GET /healthz", "/healthz", s.handleHealthz)
	add("GET /metrics", "/metrics", s.metrics.reg.Handler().ServeHTTP)
	add("GET /v1/stats", "/v1/stats", s.handleStats)
	add("POST /v1/simulations", "/v1/simulations", s.handleSubmit)
	add("GET /v1/simulations/{id}", "/v1/simulations/{id}", s.handleSimulation)
	add("POST /v1/sweeps", "/v1/sweeps", s.handleSweepSubmit)
	add("GET /v1/sweeps/{id}", "/v1/sweeps/{id}", s.handleSweep)
	add("GET /v1/sweeps/{id}/events", "/v1/sweeps/{id}/events", s.handleSweepEvents)
	add("POST /v1/sweeps/{id}/resume", "/v1/sweeps/{id}/resume", s.handleSweepResume)
	add("GET /v1/experiments/{id}", "/v1/experiments/{id}", s.handleExperiment)
	if s.opts.Queue != nil {
		s.queueRoutes(add)
	}
	if s.opts.Pprof {
		// Deliberately uninstrumented: profile endpoints stream for their
		// whole -seconds window and would skew the latency histograms.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	add("/", "other", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, r, http.StatusNotFound, fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path))
	})
	return mux
}

// errorBody is the uniform JSON error envelope. RequestID lets a client
// quote the exact server log line its failure produced.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func writeError(w http.ResponseWriter, r *http.Request, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg, RequestID: telemetry.RequestID(r.Context())})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	// Marshal before touching the ResponseWriter: once the status line is
	// out an encoding failure could only produce a truncated body.
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		code = http.StatusInternalServerError
		b, _ = json.Marshal(errorBody{Error: "encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

// handleHealthz is a readiness check, not just liveness: when the engine
// has a persistent store, it probes the store directory with a temp-file
// create/remove — the first thing every result Put does — so a full disk
// or vanished directory flips the endpoint to 503 before sweeps start
// failing mysteriously.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state, err := s.checkStore()
	body := map[string]string{"status": "ok", "store": state}
	if err != nil {
		body["status"] = "degraded"
		body["reason"] = "store probe: " + err.Error()
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// storeStatsBody is slicc.StoreStats with the stats endpoint's JSON names
// (converted, so the two cannot drift); /metrics projects the same
// snapshot. Evictions are split per tier: disk entries evicted under the
// -store-max-mb budget vs memory-tier entries evicted under
// -store-mem-mb (both process-local).
type storeStatsBody struct {
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	DiskEvictions int64 `json:"evictions_disk"`
	MemEntries    int   `json:"mem_entries"`
	MemBytes      int64 `json:"mem_bytes"`
	MemEvictions  int64 `json:"evictions_mem"`
	MemHits       int64 `json:"mem_hits"`
	MemMisses     int64 `json:"mem_misses"`
	NegativeHits  int64 `json:"negative_hits"`
}

// respCacheBody reports the response-byte cache and conditional-GET
// counters (the same values the slicc_response_cache_* and
// slicc_http_not_modified_total metric families expose).
type respCacheBody struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	NotModified uint64 `json:"not_modified"`
}

// statsResponse reports engine counters plus service-level bookkeeping.
type statsResponse struct {
	Engine slicc.EngineStats `json:"engine"`
	// Store is present only when the engine has a persistent store.
	Store         *storeStatsBody `json:"store,omitempty"`
	ResponseCache respCacheBody   `json:"response_cache"`
	// Queue is present only on distributed control planes (sliccd
	// -distributed): the durable job queue's depth, DLQ and lifetime
	// counters.
	Queue       *queueStatsBody `json:"queue,omitempty"`
	Simulations int             `json:"simulations"`
	// Sweeps counts tracked sweep entries (running and retained
	// completed/failed ones); SweepsRunning counts only the running
	// subset, whose unfinished result cells are SweepCellsPending. In
	// distributed mode the queue block splits that pending work further
	// into queued-but-unleased vs in-flight-on-a-worker.
	Sweeps            int     `json:"sweeps"`
	SweepsRunning     int     `json:"sweeps_running"`
	SweepCellsPending int     `json:"sweep_cells_pending"`
	UptimeSeconds     float64 `json:"uptime_seconds"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	resp := statsResponse{
		Engine: snap.engine,
		ResponseCache: respCacheBody{
			Hits:        s.metrics.respCacheHits.Value(),
			Misses:      s.metrics.respCacheMisses.Value(),
			NotModified: s.metrics.notModified.Value(),
		},
		Simulations:       snap.sims,
		Sweeps:            snap.sweeps,
		SweepsRunning:     snap.running,
		SweepCellsPending: snap.pending,
		UptimeSeconds:     snap.uptime,
	}
	if s.src.queue != nil {
		resp.Queue = (*queueStatsBody)(&snap.queue)
	}
	if s.src.store != nil {
		resp.Store = (*storeStatsBody)(&snap.store)
	}
	writeJSON(w, http.StatusOK, resp)
}

// simResponse describes one simulation's state.
type simResponse struct {
	ID string `json:"id"`
	// Status is "running", "done" or "failed".
	Status string        `json:"status"`
	Config slicc.Config  `json:"config"`
	Result *slicc.Result `json:"result,omitempty"`
	Error  string        `json:"error,omitempty"`
}

func (e *simEntry) response() simResponse {
	resp := simResponse{ID: e.id, Status: "running", Config: e.cfg}
	select {
	case <-e.done:
		if e.err != nil {
			resp.Status = "failed"
			resp.Error = e.err.Error()
		} else {
			resp.Status = "done"
			r := e.result
			resp.Result = &r
		}
	default:
	}
	return resp
}

// handleSubmit accepts a slicc.Config and coalesces it onto the existing
// execution of the same content key, starting one if needed.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var cfg slicc.Config
	if err := dec.Decode(&cfg); err != nil {
		writeError(w, r, http.StatusBadRequest, "decoding config: "+err.Error())
		return
	}
	// TracePath names a file on the *server's* filesystem; accepting it
	// from the network would let clients probe arbitrary paths and hash
	// unbounded special files. Trace replay stays a CLI/library feature
	// (warm the store with tracegen/experiments -store instead).
	if cfg.TracePath != "" {
		writeError(w, r, http.StatusUnprocessableEntity,
			"TracePath is not accepted over the API; replay traces via the CLIs and share results through the store")
		return
	}
	id, err := cfg.Key()
	if err != nil {
		writeError(w, r, http.StatusUnprocessableEntity, err.Error())
		return
	}

	s.mu.Lock()
	e, existed := s.sims[id]
	if !existed {
		e = &simEntry{id: id, cfg: cfg, done: make(chan struct{})}
		s.sims[id] = e
		s.order = append(s.order, id)
		s.evictCompletedLocked()
		s.running.Add(1)
		// The run belongs to the service (baseCtx), not the submitting
		// request, but it keeps the submitter's request ID so its spans
		// trace back to the access log line that started it.
		runCtx := telemetry.WithRequestID(s.baseCtx, telemetry.RequestID(r.Context()))
		go func() {
			defer s.running.Done()
			// The simulation belongs to the service, not the submitting
			// request: it survives client disconnects and is aborted only
			// by server shutdown.
			e.result, e.err = s.eng.Run(runCtx, e.cfg)
			close(e.done)
			if e.err != nil {
				// Drop failed entries so a later identical submission
				// retries instead of replaying a possibly transient
				// failure forever (mirroring the pool's own evict-on-fail
				// policy). Waiters holding the entry still see the error.
				s.evict(id, e)
			}
		}()
	}
	s.mu.Unlock()

	if boolParam(r, "wait") {
		select {
		case <-e.done:
		case <-time.After(s.opts.Timeout):
			// Not an error: the job is accepted and still running.
		case <-r.Context().Done():
		case <-s.baseCtx.Done():
		}
	}
	resp := e.response()
	code := http.StatusOK
	if !existed && resp.Status == "running" {
		code = http.StatusAccepted
	}
	writeJSON(w, code, resp)
}

// evict removes id's entry if it is still e (a newer retry must survive).
func (s *Server) evict(id string, e *simEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sims[id] == e {
		delete(s.sims, id)
	}
}

// evictCompletedLocked bounds s.sims at maxTrackedSims by dropping the
// oldest completed entries (running ones are never dropped). Caller holds
// s.mu.
func (s *Server) evictCompletedLocked() {
	if len(s.sims) <= maxTrackedSims {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		e, ok := s.sims[id]
		if !ok {
			continue // already evicted (failure path)
		}
		completed := false
		select {
		case <-e.done:
			completed = true
		default:
		}
		if completed && len(s.sims) > maxTrackedSims {
			delete(s.sims, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *Server) handleSimulation(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	e, ok := s.sims[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, r, http.StatusNotFound, fmt.Sprintf("unknown simulation %q", id))
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
	if resp.Status == "done" {
		// Done simulations are immutable content keyed by id: serve the
		// conditional-GET / cached-bytes fast path.
		if s.serveCached(w, r, &e.resp, id, "json", "application/json",
			func() ([]byte, error) { return marshalResponse(resp) }) {
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// sweepEntry is one content-keyed sweep accepted by the service.
type sweepEntry struct {
	id   string
	spec slicc.SweepSpec
	done chan struct{} // closed when result/err are valid
	// prog accumulates the run's streamed events: the replayable SSE log,
	// the finished cells for partial GET responses, and live subscribers.
	prog *sweepProgress

	result *slicc.SweepResult
	err    error
	// resp caches the marshaled bytes (per format) of the completed
	// (done, non-failed) sweep. Failed sweeps are never cached: they are
	// retained mutable, retried in place by re-POST/resume.
	resp respCache
}

// failed reports whether the entry's run has completed with an error.
func (e *sweepEntry) failed() bool {
	select {
	case <-e.done:
		return e.err != nil
	default:
		return false
	}
}

// sweepResponse describes one sweep's state.
type sweepResponse struct {
	ID string `json:"id"`
	// Status is "running", "done" or "failed".
	Status string          `json:"status"`
	Spec   slicc.SweepSpec `json:"spec"`
	// Completed of Total result cells have finished (baselines excluded).
	Completed int `json:"completed"`
	Total     int `json:"total"`
	// Partial lists the cells finished so far in expansion order. Present
	// while running or failed; a done sweep's Result carries every cell.
	Partial []slicc.SweepCellResult `json:"partial,omitempty"`
	Result  *slicc.SweepResult      `json:"result,omitempty"`
	Error   string                  `json:"error,omitempty"`
}

func (e *sweepEntry) response() sweepResponse {
	resp := sweepResponse{ID: e.id, Status: "running", Spec: e.spec}
	resp.Completed, resp.Total = e.prog.counts()
	select {
	case <-e.done:
		if e.err != nil {
			resp.Status = "failed"
			resp.Error = e.err.Error()
			resp.Partial = e.prog.partialCells()
		} else {
			resp.Status = "done"
			resp.Result = e.result
		}
	default:
		resp.Partial = e.prog.partialCells()
	}
	return resp
}

// handleSweepSubmit accepts a slicc.SweepSpec and coalesces it onto the
// existing run of the same content key, starting one if needed. Sweep
// specs are pure benchmark axes — no TracePath-style server filesystem
// references exist in the schema — so the whole spec is safe to accept
// from the network; expansion itself enforces the cell limit.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var spec slicc.SweepSpec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, r, http.StatusBadRequest, "decoding sweep spec: "+err.Error())
		return
	}
	id, err := spec.Key()
	if err != nil {
		writeError(w, r, http.StatusUnprocessableEntity, err.Error())
		return
	}

	reqID := telemetry.RequestID(r.Context())
	s.mu.Lock()
	e, existed := s.sweeps[id]
	fresh := !existed
	if existed && e.failed() {
		// Failed sweeps are retained (inspectable via GET, with the error
		// and partial cells); resubmitting the spec retries in place
		// rather than replaying the failure — same contract as the resume
		// endpoint, and the reason identical re-POSTs never poison.
		e = s.startSweepLocked(id, e.spec, reqID)
		fresh = true
	} else if !existed {
		e = s.startSweepLocked(id, spec, reqID)
	}
	s.mu.Unlock()

	if boolParam(r, "wait") {
		select {
		case <-e.done:
		case <-time.After(s.opts.Timeout):
			// Not an error: the sweep is accepted and still running.
		case <-r.Context().Done():
		case <-s.baseCtx.Done():
		}
	}
	resp := e.response()
	code := http.StatusOK
	if fresh && resp.Status == "running" {
		code = http.StatusAccepted
	}
	writeJSON(w, code, resp)
}

// startSweepLocked registers a (possibly replacement) sweep entry under id
// and launches its run, tagged with the starting request's ID. Caller
// holds s.mu.
func (s *Server) startSweepLocked(id string, spec slicc.SweepSpec, reqID string) *sweepEntry {
	total, err := spec.CellCount()
	if err != nil {
		total = 0 // unreachable: the spec's Key() already validated it
	}
	prog := newSweepProgress(total, s.opts.EventBuffer)
	prog.onDrop = s.metrics.sseDropped.Inc
	e := &sweepEntry{
		id:   id,
		spec: spec,
		done: make(chan struct{}),
		prog: prog,
	}
	if _, ok := s.sweeps[id]; !ok {
		s.sweepOrder = append(s.sweepOrder, id)
	}
	s.sweeps[id] = e
	s.evictCompletedSweepsLocked()
	s.running.Add(1)
	logger := s.logger.With(slog.String("sweep_id", id), slog.String("request_id", reqID))
	logger.Info("sweep start", slog.Int("cells", total))
	// emit wraps the progress publisher with the cell counter and a debug
	// completion log; Engine.SweepStream calls it serially, preserving
	// publish's contract.
	emit := func(ev slicc.SweepEvent) {
		if ev.Type == slicc.SweepEventCell {
			s.metrics.sweepCells.Inc()
			logger.Debug("sweep cell",
				slog.Int("index", ev.Index),
				slog.Int("completed", ev.Completed),
				slog.Int("total", ev.Total),
				slog.Bool("store_hit", ev.StoreHit))
		}
		e.prog.publish(ev)
	}
	runCtx := telemetry.WithRequestID(s.baseCtx, reqID)
	start := time.Now()
	go func() {
		defer s.running.Done()
		// Like simulations, the sweep belongs to the service: it survives
		// client disconnects and only shutdown aborts it. done closes
		// before finish publishes the stream's terminal event, so a client
		// that has read "done"/"error" finds the resource complete on its
		// next GET; finish then hands the terminal event to every
		// subscriber, tracked or evicted, so none sees a silent stall.
		res, err := s.sweepRun(runCtx, e.spec, emit)
		e.result, e.err = res, err
		close(e.done)
		e.prog.finish(res, err)
		d := time.Since(start)
		if err != nil {
			logger.Warn("sweep failed", slog.Duration("duration", d), slog.String("error", err.Error()))
		} else {
			logger.Info("sweep done", slog.Duration("duration", d), slog.Int("cells", total))
		}
	}()
	return e
}

// evictCompletedSweepsLocked bounds s.sweeps at Options.MaxTrackedSweeps
// by dropping the oldest completed entries. Eviction can never strand a
// connected client: only completed entries are evicted, and finish
// publishes the terminal event to every subscriber of the entry whether
// or not it is still tracked; new connections to the id get 404.
// Caller holds s.mu.
func (s *Server) evictCompletedSweepsLocked() {
	if len(s.sweeps) <= s.opts.MaxTrackedSweeps {
		return
	}
	kept := s.sweepOrder[:0]
	for _, id := range s.sweepOrder {
		e, ok := s.sweeps[id]
		if !ok {
			continue // no longer tracked
		}
		completed := false
		select {
		case <-e.done:
			completed = true
		default:
		}
		if completed && len(s.sweeps) > s.opts.MaxTrackedSweeps {
			delete(s.sweeps, id)
			continue
		}
		kept = append(kept, id)
	}
	s.sweepOrder = kept
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	e, ok := s.sweeps[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, r, http.StatusNotFound, fmt.Sprintf("unknown sweep %q", id))
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
	format := r.URL.Query().Get("format")
	if resp.Status == "done" {
		// Done sweeps are immutable content keyed by id (+format for the
		// non-JSON representations): conditional GETs and cached bytes.
		switch format {
		case "csv":
			if s.serveCached(w, r, &e.resp, id, "csv", "text/csv; charset=utf-8",
				buffered(func(buf *bytes.Buffer) error { return resp.Result.WriteCSV(buf) })) {
				return
			}
		case "text":
			if s.serveCached(w, r, &e.resp, id, "text", "text/plain; charset=utf-8",
				buffered(func(buf *bytes.Buffer) error {
					t := slicc.SweepTable(resp.Result)
					t.Format(buf)
					return nil
				})) {
				return
			}
		default:
			if s.serveCached(w, r, &e.resp, id, "json", "application/json",
				func() ([]byte, error) { return marshalResponse(resp) }) {
				return
			}
		}
	}
	if resp.Status == "done" {
		// Fallthrough from a disabled or failed response cache: render the
		// requested format directly (pre-cache behavior).
		switch format {
		case "csv":
			w.Header().Set("Content-Type", "text/csv; charset=utf-8")
			if err := resp.Result.WriteCSV(w); err != nil {
				// Headers are out; nothing meaningful left to send.
				return
			}
			return
		case "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			t := slicc.SweepTable(resp.Result)
			t.Format(w)
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// experimentResponse carries one experiment's rendered tables.
type experimentResponse struct {
	ID     string                  `json:"id"`
	Quick  bool                    `json:"quick"`
	Seed   int64                   `json:"seed"`
	Tables []slicc.ExperimentTable `json:"tables"`
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	known := false
	for _, kid := range slicc.ExperimentIDs() {
		if id == kid {
			known = true
			break
		}
	}
	if !known {
		writeError(w, r, http.StatusNotFound,
			fmt.Sprintf("unknown experiment %q (have %s)", id, strings.Join(slicc.ExperimentIDs(), ", ")))
		return
	}
	seed := int64(1)
	if v := r.URL.Query().Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, "bad seed: "+err.Error())
			return
		}
		seed = n
	}
	quick := boolParam(r, "quick")

	ctx, cancelTimeout := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancelTimeout()
	// Shutdown aborts experiment simulations too.
	ctx, cancelBase := mergeCancel(ctx, s.baseCtx)
	defer cancelBase()

	tables, err := s.eng.Experiment(ctx, id, quick, seed)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, context.DeadlineExceeded) {
			code = http.StatusGatewayTimeout
		}
		writeError(w, r, code, err.Error())
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, t := range tables {
			t.Format(w)
		}
		return
	}
	writeJSON(w, http.StatusOK, experimentResponse{ID: id, Quick: quick, Seed: seed, Tables: tables})
}

// boolParam interprets ?name=1/true/yes (missing or anything else = false).
func boolParam(r *http.Request, name string) bool {
	switch strings.ToLower(r.URL.Query().Get(name)) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// mergeCancel derives a context from primary that is additionally cancelled
// when secondary ends.
func mergeCancel(primary, secondary context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(primary)
	go func() {
		select {
		case <-secondary.Done():
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}
