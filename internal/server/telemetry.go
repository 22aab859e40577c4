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
// *_seconds histograms, gauges for states. Engine and store counters are
// not double-counted: /metrics samples the same runner.Stats and
// store.Stats that /v1/stats reports, via scrape-time callbacks, so the
// two surfaces always agree.

import (
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"slicc"
	"slicc/internal/telemetry"
)

// serverMetrics bundles the handles the request path updates directly.
// Everything sampled at scrape time (engine counters, store stats, queue
// depth, uptime) is registered as a callback in registerMetrics instead.
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

// registerMetrics wires the scrape-time families: engine work counters
// bridged from runner.Stats, store entry/byte/eviction stats, sweep queue
// depth, and process uptime.
func (s *Server) registerMetrics() {
	reg := s.metrics.reg
	eng := s.eng
	engCounter := func(name, help string, f func(slicc.EngineStats) float64) {
		reg.CounterFunc(name, help, func() float64 { return f(eng.Stats()) })
	}
	engCounter("slicc_sims_requested_total",
		"Simulations requested of the engine (executions + dedup hits + store hits).",
		func(e slicc.EngineStats) float64 { return float64(e.SimsRequested) })
	engCounter("slicc_sims_executed_total",
		"Simulations actually executed (cache misses).",
		func(e slicc.EngineStats) float64 { return float64(e.SimsExecuted) })
	engCounter("slicc_sims_remote_total",
		"Simulations dispatched to the distributed worker fleet.",
		func(e slicc.EngineStats) float64 { return float64(e.SimsRemote) })
	engCounter("slicc_dedup_hits_total",
		"Simulations served by an identical in-process execution.",
		func(e slicc.EngineStats) float64 { return float64(e.DedupHits) })
	engCounter("slicc_store_hits_total",
		"Simulations served from the persistent result store.",
		func(e slicc.EngineStats) float64 { return float64(e.StoreHits) })
	engCounter("slicc_store_puts_total",
		"Executed results recorded into the persistent result store.",
		func(e slicc.EngineStats) float64 { return float64(e.StorePuts) })
	engCounter("slicc_workloads_built_total",
		"Workload syntheses and trace opens (workload-cache misses).",
		func(e slicc.EngineStats) float64 { return float64(e.WorkloadsBuilt) })
	engCounter("slicc_workload_hits_total",
		"Workload-cache hits.",
		func(e slicc.EngineStats) float64 { return float64(e.WorkloadHits) })
	engCounter("slicc_instructions_simulated_total",
		"Instructions simulated across executed simulations.",
		func(e slicc.EngineStats) float64 { return float64(e.InstructionsSimulated) })
	engCounter("slicc_sim_cells_batched_total",
		"Simulations that ran inside lockstep sweep batches.",
		func(e slicc.EngineStats) float64 { return float64(e.CellsBatched) })
	engCounter("slicc_sim_batches_executed_total",
		"Lockstep batch passes executed.",
		func(e slicc.EngineStats) float64 { return float64(e.BatchesExecuted) })
	engCounter("slicc_batch_ops_decoded_total",
		"Trace ops decoded once into shared lockstep batch tables.",
		func(e slicc.EngineStats) float64 { return float64(e.BatchOpsDecoded) })
	engCounter("slicc_batch_ops_served_total",
		"Instructions batched simulations executed from shared batch tables.",
		func(e slicc.EngineStats) float64 { return float64(e.BatchOpsServed) })
	engCounter("slicc_runner_op_stream_generator_passes_total",
		"Thread op-stream generator runs started for simulations (one per thread of a workload its submission's jobs share).",
		func(e slicc.EngineStats) float64 { return float64(e.OpStreamGeneratorPasses) })
	engCounter("slicc_runner_op_streams_recorded_total",
		"Thread op streams recorded in memory for later replays.",
		func(e slicc.EngineStats) float64 { return float64(e.OpStreamsRecorded) })
	engCounter("slicc_runner_machines_recycled_total",
		"Executed simulations whose machine was built on recycled cache storage.",
		func(e slicc.EngineStats) float64 { return float64(e.MachinesRecycled) })

	if _, ok := eng.StoreStats(); ok {
		reg.GaugeFunc("slicc_store_entries",
			"Entry files in the persistent result store directory.",
			func() float64 { st, _ := eng.StoreStats(); return float64(st.Entries) })
		reg.GaugeFunc("slicc_store_bytes",
			"Total size of the persistent result store's entry files.",
			func() float64 { st, _ := eng.StoreStats(); return float64(st.Bytes) })
		reg.CounterFunc("slicc_store_evictions_total",
			"Disk store entries evicted under the -store-max-mb budget by this process.",
			func() float64 { st, _ := eng.StoreStats(); return float64(st.DiskEvictions) })
		// Memory-tier families are registered whenever a store exists and
		// simply read zero while -store-mem-mb is off, so dashboards need
		// no conditional wiring.
		reg.GaugeFunc("slicc_store_mem_entries",
			"Entries in the store's in-memory hot tier.",
			func() float64 { st, _ := eng.StoreStats(); return float64(st.MemEntries) })
		reg.GaugeFunc("slicc_store_mem_bytes",
			"Bytes held by the store's in-memory hot tier.",
			func() float64 { st, _ := eng.StoreStats(); return float64(st.MemBytes) })
		reg.CounterFunc("slicc_store_mem_evictions_total",
			"Memory-tier entries evicted under the -store-mem-mb budget.",
			func() float64 { st, _ := eng.StoreStats(); return float64(st.MemEvictions) })
		reg.CounterFunc("slicc_store_mem_hits_total",
			"Store lookups served from the in-memory hot tier (no disk I/O).",
			func() float64 { st, _ := eng.StoreStats(); return float64(st.MemHits) })
		reg.CounterFunc("slicc_store_mem_misses_total",
			"Store lookups that fell through the in-memory hot tier.",
			func() float64 { st, _ := eng.StoreStats(); return float64(st.MemMisses) })
		reg.CounterFunc("slicc_store_negative_hits_total",
			"Store misses answered by the negative cache without touching disk.",
			func() float64 { st, _ := eng.StoreStats(); return float64(st.NegativeHits) })
	}

	reg.GaugeFunc("slicc_sweeps_running",
		"Sweeps currently executing.",
		func() float64 { r, _ := s.sweepDepth(); return float64(r) })
	reg.GaugeFunc("slicc_sweep_cells_pending",
		"Result cells of running sweeps not yet completed (the sweep queue depth).",
		func() float64 { _, p := s.sweepDepth(); return float64(p) })
	reg.GaugeFunc("slicc_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
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

// checkStore probes the health of the engine's persistent store by
// creating and removing a temp file in its directory — the same operation
// every result Put starts with. It returns the store state token for the
// health body ("none" without a store, "rw" when writable) and a nil or
// describing error.
func (s *Server) checkStore() (state string, err error) {
	dir := s.eng.StoreDir()
	if dir == "" {
		return "none", nil
	}
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return "error", err
	}
	name := f.Name()
	f.Close()
	os.Remove(name)
	return "rw", nil
}
