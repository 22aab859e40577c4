package server

// HTTP-layer telemetry: the access-log + metrics middleware every route
// runs under, the /metrics registration of server, engine and store
// metric families, and the request-ID plumbing.
//
// Every request gets an ID — the client's X-Request-ID when it sends a
// well-formed one, a generated one otherwise — echoed in the response
// header and in JSON error bodies, stamped on the request's access log
// line, and used as the trace ID for the span tree the request's work
// produces (handler → engine → runner job → sim run). One request, one
// access line, one grep-able ID across client, logs and traces.
//
// Metric families follow the Prometheus conventions: *_total counters,
// *_seconds histograms, gauges for states. Engine, store, queue and sweep
// numbers are not kept twice: GET /v1/stats and a /metrics scrape are both
// rendered from one call of Server.snapshot, which asks each source once,
// so the two surfaces agree by construction and every family of one
// exposition describes the same instant.

import (
	"errors"
	"io/fs"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"slicc"
	"slicc/internal/queue"
	"slicc/internal/telemetry"
)

// serverMetrics bundles the handles the request path updates directly.
// Everything sampled at read time (engine counters, store stats, queue
// depth, uptime) is a projection of Server.snapshot instead; see
// registerMetrics.
type serverMetrics struct {
	reg             *telemetry.Registry
	inFlight        *telemetry.Gauge
	sseSubscribers  *telemetry.Gauge
	sseDropped      *telemetry.Counter
	sweepCells      *telemetry.Counter
	respCacheHits   *telemetry.Counter
	respCacheMisses *telemetry.Counter
	notModified     *telemetry.Counter
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	return &serverMetrics{
		reg: reg,
		inFlight: reg.Gauge("slicc_http_requests_in_flight",
			"HTTP requests currently being handled."),
		sseSubscribers: reg.Gauge("slicc_sse_subscribers",
			"Live sweep event-stream subscribers."),
		sseDropped: reg.Counter("slicc_sse_dropped_total",
			"Event-stream subscribers disconnected for falling a full buffer behind."),
		sweepCells: reg.Counter("slicc_sweep_cells_completed_total",
			"Sweep result cells completed across all sweeps."),
		respCacheHits: reg.Counter("slicc_response_cache_hits_total",
			"Completed-resource GETs served from cached response bytes."),
		respCacheMisses: reg.Counter("slicc_response_cache_misses_total",
			"Completed-resource GETs that built (and cached) their response bytes."),
		notModified: reg.Counter("slicc_http_not_modified_total",
			"Conditional GETs answered 304 via If-None-Match."),
	}
}

// snapshot is one instant of everything the read surfaces sample rather
// than count on the request path.
type snapshot struct {
	engine slicc.EngineStats
	store  slicc.StoreStats // zero without a store
	queue  queue.Stats      // zero without Options.Queue
	// sims and sweeps count tracked entries; running is the subset of
	// sweeps still executing and pending their unfinished result cells.
	sims, sweeps, running, pending int
	uptime                         float64
}

// sources are the calls a snapshot is made of, one per layer. New wires
// the engine, the queue and the server's own sweep table; tests substitute
// counting or scripted ones.
type sources struct {
	engine func() slicc.EngineStats
	store  func() (slicc.StoreStats, bool) // nil without a store
	queue  func() queue.Stats              // nil without Options.Queue
	sweeps func() (running, pending int)
}

// snapshot asks every source exactly once.
func (s *Server) snapshot() snapshot {
	snap := snapshot{engine: s.src.engine(), uptime: time.Since(s.start).Seconds()}
	if s.src.store != nil {
		snap.store, _ = s.src.store()
	}
	if s.src.queue != nil {
		snap.queue = s.src.queue()
	}
	snap.running, snap.pending = s.src.sweeps()
	s.mu.Lock()
	snap.sims, snap.sweeps = len(s.sims), len(s.sweeps)
	s.mu.Unlock()
	return snap
}

type sampled = telemetry.Sampled[snapshot]

func counter(name, help string, value func(snapshot) float64, labels ...telemetry.Label) sampled {
	return sampled{Name: name, Help: help, Counter: true, Labels: labels, Value: value}
}

func gauge(name, help string, value func(snapshot) float64, labels ...telemetry.Label) sampled {
	return sampled{Name: name, Help: help, Labels: labels, Value: value}
}

// baseFamilies exist on every server: the engine's runner.Stats bridge,
// then the server's own sweep table and clock.
var baseFamilies = []sampled{
	counter("slicc_sims_requested_total", "Simulations requested of the engine (executions + dedup hits + store hits).",
		func(s snapshot) float64 { return float64(s.engine.SimsRequested) }),
	counter("slicc_sims_executed_total", "Simulations actually executed (cache misses).",
		func(s snapshot) float64 { return float64(s.engine.SimsExecuted) }),
	counter("slicc_sims_remote_total", "Simulations dispatched to the distributed worker fleet.",
		func(s snapshot) float64 { return float64(s.engine.SimsRemote) }),
	counter("slicc_dedup_hits_total", "Simulations served by an identical in-process execution.",
		func(s snapshot) float64 { return float64(s.engine.DedupHits) }),
	counter("slicc_store_hits_total", "Simulations served from the persistent result store.",
		func(s snapshot) float64 { return float64(s.engine.StoreHits) }),
	counter("slicc_store_puts_total", "Executed results recorded into the persistent result store.",
		func(s snapshot) float64 { return float64(s.engine.StorePuts) }),
	counter("slicc_workloads_built_total", "Workload syntheses and trace opens (workload-cache misses).",
		func(s snapshot) float64 { return float64(s.engine.WorkloadsBuilt) }),
	counter("slicc_workload_hits_total", "Workload-cache hits.",
		func(s snapshot) float64 { return float64(s.engine.WorkloadHits) }),
	counter("slicc_instructions_simulated_total", "Instructions simulated across executed simulations.",
		func(s snapshot) float64 { return float64(s.engine.InstructionsSimulated) }),
	counter("slicc_sim_cells_batched_total", "Simulations that ran inside lockstep sweep batches.",
		func(s snapshot) float64 { return float64(s.engine.CellsBatched) }),
	counter("slicc_sim_batches_executed_total", "Lockstep batch passes executed.",
		func(s snapshot) float64 { return float64(s.engine.BatchesExecuted) }),
	counter("slicc_batch_ops_decoded_total", "Trace ops decoded once into shared lockstep batch tables.",
		func(s snapshot) float64 { return float64(s.engine.BatchOpsDecoded) }),
	counter("slicc_batch_ops_served_total", "Instructions batched simulations executed from shared batch tables.",
		func(s snapshot) float64 { return float64(s.engine.BatchOpsServed) }),
	counter("slicc_runner_op_stream_generator_passes_total",
		"Thread op-stream generator runs started for simulations (one per thread of a workload its submission's jobs share).",
		func(s snapshot) float64 { return float64(s.engine.OpStreamGeneratorPasses) }),
	counter("slicc_runner_op_streams_recorded_total", "Thread op streams recorded in memory for later replays.",
		func(s snapshot) float64 { return float64(s.engine.OpStreamsRecorded) }),
	counter("slicc_runner_machines_recycled_total",
		"Executed simulations whose machine was built on recycled cache storage.",
		func(s snapshot) float64 { return float64(s.engine.MachinesRecycled) }),
	gauge("slicc_sweeps_running", "Sweeps currently executing.",
		func(s snapshot) float64 { return float64(s.running) }),
	gauge("slicc_sweep_cells_pending", "Result cells of running sweeps not yet completed (the sweep queue depth).",
		func(s snapshot) float64 { return float64(s.pending) }),
	gauge("slicc_uptime_seconds", "Seconds since the server started.",
		func(s snapshot) float64 { return s.uptime }),
}

// storeFamilies are registered whenever the engine has a store. The
// memory-tier ones simply read zero while -store-mem-mb is off, so
// dashboards need no conditional wiring.
var storeFamilies = []sampled{
	gauge("slicc_store_entries", "Entry files in the persistent result store directory.",
		func(s snapshot) float64 { return float64(s.store.Entries) }),
	gauge("slicc_store_bytes", "Total size of the persistent result store's entry files.",
		func(s snapshot) float64 { return float64(s.store.Bytes) }),
	counter("slicc_store_evictions_total", "Disk store entries evicted under the -store-max-mb budget by this process.",
		func(s snapshot) float64 { return float64(s.store.DiskEvictions) }),
	gauge("slicc_store_mem_entries", "Entries in the store's in-memory hot tier.",
		func(s snapshot) float64 { return float64(s.store.MemEntries) }),
	gauge("slicc_store_mem_bytes", "Bytes held by the store's in-memory hot tier.",
		func(s snapshot) float64 { return float64(s.store.MemBytes) }),
	counter("slicc_store_mem_evictions_total", "Memory-tier entries evicted under the -store-mem-mb budget.",
		func(s snapshot) float64 { return float64(s.store.MemEvictions) }),
	counter("slicc_store_mem_hits_total", "Store lookups served from the in-memory hot tier (no disk I/O).",
		func(s snapshot) float64 { return float64(s.store.MemHits) }),
	counter("slicc_store_mem_misses_total", "Store lookups that fell through the in-memory hot tier.",
		func(s snapshot) float64 { return float64(s.store.MemMisses) }),
	counter("slicc_store_negative_hits_total", "Store misses answered by the negative cache without touching disk.",
		func(s snapshot) float64 { return float64(s.store.NegativeHits) }),
}

// registerMetrics wires the snapshot's sources and registers every sampled
// family as one group over Server.snapshot: one scrape, one call per
// source.
func (s *Server) registerMetrics() {
	s.src = sources{engine: s.eng.Stats, sweeps: s.sweepDepth}
	fams := append([]sampled(nil), baseFamilies...)
	if s.eng.StoreDir() != "" {
		s.src.store = s.eng.StoreStats
		fams = append(fams, storeFamilies...)
	}
	if q := s.opts.Queue; q != nil {
		s.src.queue = q.Stats
		fams = append(fams, queueFamilies...)
	}
	telemetry.SampleGroup(s.metrics.reg, s.snapshot, fams...)
}

// sweepDepth reports how many sweeps are running and how many of their
// result cells are still pending.
func (s *Server) sweepDepth() (running, pending int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.sweeps {
		select {
		case <-e.done:
		default:
			completed, total := e.prog.counts()
			running++
			pending += total - completed
		}
	}
	return running, pending
}

// requestID returns the request's ID: a well-formed client X-Request-ID
// (letters, digits, '.', '_', '-'; at most 64 bytes — it is logged and
// echoed, so arbitrary bytes are not accepted), else a generated one.
func requestID(r *http.Request) string {
	id := r.Header.Get("X-Request-ID")
	if id == "" || len(id) > 64 {
		return telemetry.NewRequestID()
	}
	for _, c := range []byte(id) {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return telemetry.NewRequestID()
		}
	}
	return id
}

// statusRecorder captures the response status for the access log and
// request counter, forwarding Flush so streaming handlers (SSE) keep
// working through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a route handler with the telemetry middleware:
// request-ID propagation (header in, header out, context through),
// request-scoped logger and tracer, in-flight/request/latency metrics,
// and exactly one structured access log line per request.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.metrics.reg.Histogram("slicc_http_request_duration_seconds",
		"HTTP request handling latency by route.", nil, telemetry.L("route", route))
	// The request counter's registry lookup rebuilds a label signature on
	// every call; routes see few distinct (method, status) pairs, so a
	// small per-route cache keeps the hot path to one map read.
	var countersMu sync.RWMutex
	counters := map[[2]string]*telemetry.Counter{}
	requestCounter := func(method string, status int) *telemetry.Counter {
		key := [2]string{method, strconv.Itoa(status)}
		countersMu.RLock()
		c, ok := counters[key]
		countersMu.RUnlock()
		if !ok {
			c = s.metrics.reg.Counter("slicc_http_requests_total",
				"HTTP requests by route, method and status code.",
				telemetry.L("route", route), telemetry.L("method", key[0]),
				telemetry.L("code", key[1]))
			countersMu.Lock()
			counters[key] = c
			countersMu.Unlock()
		}
		return c
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := requestID(r)
		w.Header().Set("X-Request-ID", id)
		logger := s.logger.With(slog.String("request_id", id))
		ctx := telemetry.WithRequestID(r.Context(), id)
		ctx = telemetry.WithLogger(ctx, logger)
		ctx = telemetry.WithTracer(ctx, s.tracer)
		ctx, sp := telemetry.StartSpan(ctx, "http.request", slog.String("route", route))
		rec := &statusRecorder{ResponseWriter: w}
		s.metrics.inFlight.Inc()
		h(rec, r.WithContext(ctx))
		s.metrics.inFlight.Dec()
		sp.End()
		if rec.status == 0 {
			rec.status = http.StatusOK // handler wrote nothing: implicit 200
		}
		d := time.Since(start)
		hist.Observe(d.Seconds())
		requestCounter(r.Method, rec.status).Inc()
		logger.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Duration("duration", d),
			slog.String("remote", r.RemoteAddr),
		)
	}
}

// probeDir is the store subdirectory /healthz's write probe works in.
// store.Stats reuses its last listing while the store directory's mtime
// stands, and a file created and removed in that directory moves it; in
// a subdirectory, only the subdirectory's mtime moves (as with the
// queue/ subdirectory).
const probeDir = ".probe"

// checkStore probes the health of the engine's persistent store by
// creating and removing a temp file in a subdirectory of it — the same
// operation every result Put starts with, on the same filesystem. It
// returns the store state token for the health body ("none" without a
// store, "rw" when writable) and a nil or describing error.
func (s *Server) checkStore() (state string, err error) {
	dir := s.eng.StoreDir()
	if dir == "" {
		return "none", nil
	}
	// Mkdir, not MkdirAll: a vanished store directory must fail the probe.
	sub := filepath.Join(dir, probeDir)
	if err := os.Mkdir(sub, 0o777); err != nil && !errors.Is(err, fs.ErrExist) {
		return "error", err
	}
	f, err := os.CreateTemp(sub, "probe-*")
	if err != nil {
		return "error", err
	}
	name := f.Name()
	f.Close()
	os.Remove(name)
	return "rw", nil
}
