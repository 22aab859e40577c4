package server

// Telemetry behavior at the HTTP surface: /metrics exposition over a real
// sweep, counter monotonicity across scrapes, access logs (exactly one
// line per request, carrying the request ID), request-ID echo in headers
// and error bodies, readiness degradation, and scrape/update races.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slicc"
	"slicc/internal/queue"
	"slicc/internal/telemetry"
	"slicc/internal/telemetry/telemetrytest"
)

// syncBuffer is a goroutine-safe log sink: handlers and background sweep
// goroutines log concurrently.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// newTelemetryServer is newTestServer with the telemetry surface exposed:
// JSON logs into the returned buffer, and the Server itself for registry
// access.
func newTelemetryServer(t *testing.T, dir string) (*httptest.Server, *Server, *syncBuffer) {
	t.Helper()
	eng, err := slicc.NewEngine(slicc.EngineOptions{Workers: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	buf := &syncBuffer{}
	logger, err := telemetry.NewLogger(buf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Options{Timeout: time.Minute, Logger: logger})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		eng.Close()
	})
	return ts, srv, buf
}

func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	var b bytes.Buffer
	if _, err := b.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	return telemetrytest.ParsePrometheus(t, b.String())
}

// sourceCalls counts how often each source of Server.snapshot was asked.
type sourceCalls struct{ engine, store, queue, sweeps atomic.Int64 }

// countSources wraps srv's snapshot sources with call counters. Call it
// before the server's first request.
func countSources(srv *Server) *sourceCalls {
	c, src := &sourceCalls{}, srv.src
	srv.src.engine = func() slicc.EngineStats { c.engine.Add(1); return src.engine() }
	srv.src.sweeps = func() (int, int) { c.sweeps.Add(1); return src.sweeps() }
	if src.store != nil {
		srv.src.store = func() (slicc.StoreStats, bool) { c.store.Add(1); return src.store() }
	}
	if src.queue != nil {
		srv.src.queue = func() queue.Stats { c.queue.Add(1); return src.queue() }
	}
	return c
}

// stepped returns a T whose every numeric field is n: a source that moves
// on each call, as a running pool's counters do.
func stepped[T any](n int64) T {
	var v T
	rv := reflect.ValueOf(&v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.CanInt() {
			f.SetInt(n)
		} else {
			f.SetUint(uint64(n))
		}
	}
	return v
}

// TestOneSnapshotPerRead scripts every source to step on each call and
// checks the one-snapshot contract on both read surfaces: the k-th read
// asks each source for the k-th time, once, and every number it reports
// from a source — all 37 sampled families of a scrape, all four blocks of
// /v1/stats — comes from that one call.
func TestOneSnapshotPerRead(t *testing.T) {
	eng, err := slicc.NewEngine(slicc.EngineOptions{Workers: 1, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q, err := queue.Open(t.TempDir(), queue.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	srv := New(eng, Options{Queue: q})
	defer srv.Close()
	var calls sourceCalls
	srv.src = sources{
		engine: func() slicc.EngineStats { return stepped[slicc.EngineStats](calls.engine.Add(1)) },
		store:  func() (slicc.StoreStats, bool) { return stepped[slicc.StoreStats](calls.store.Add(1)), true },
		queue:  func() queue.Stats { return stepped[queue.Stats](calls.queue.Add(1)) },
		sweeps: func() (int, int) { n := int(calls.sweeps.Add(1)); return n, n },
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for read := int64(1); read <= 6; read++ {
		if read%2 == 1 {
			got := scrape(t, ts)
			for _, fams := range [][]sampled{baseFamilies, storeFamilies, queueFamilies} {
				for _, f := range fams {
					key := f.Name
					if key == "slicc_uptime_seconds" {
						continue // the server's clock, not a source
					}
					if len(f.Labels) == 1 {
						key += `{` + f.Labels[0].Name + `="` + f.Labels[0].Value + `"}`
					}
					if v, ok := got[key]; !ok || v != float64(read) {
						t.Errorf("read %d: %s = %v (present %v), want the value of source call %d", read, key, v, ok, read)
					}
				}
			}
			continue
		}
		r, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		got := decode[statsResponse](t, r)
		if got.Engine != stepped[slicc.EngineStats](read) || *got.Store != stepped[storeStatsBody](read) ||
			*got.Queue != stepped[queueStatsBody](read) || got.SweepsRunning != int(read) || got.SweepCellsPending != int(read) {
			t.Errorf("read %d: /v1/stats mixes source calls: %+v store %+v queue %+v", read, got, *got.Store, *got.Queue)
		}
	}
	for name, c := range map[string]*atomic.Int64{"engine": &calls.engine, "store": &calls.store, "queue": &calls.queue, "sweeps": &calls.sweeps} {
		if got := c.Load(); got != 6 {
			t.Errorf("6 reads asked the %s source %d times", name, got)
		}
	}
}

// TestQuiescentStoreReadsDoNotListIt: with an aged, unchanged store
// directory, any number of scrapes and /v1/stats requests share the one
// listing the first of them took. Seen from outside the store package by
// forging: a decoy entry is added and the directory's mtime put back, so
// any listing would report it — and does, once the mtime moves.
func TestQuiescentStoreReadsDoNotListIt(t *testing.T) {
	dir := t.TempDir()
	ts, _, _ := newTelemetryServer(t, dir)
	if _, err := http.Post(ts.URL+"/v1/simulations?wait=1", "application/json", strings.NewReader(tinyBody)); err != nil {
		t.Fatal(err)
	}
	entries := func() (stats int, metrics float64) {
		t.Helper()
		r, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		return decode[statsResponse](t, r).Store.Entries, scrape(t, ts)["slicc_store_entries"]
	}
	setMtime := func(at time.Time) {
		t.Helper()
		if err := os.Chtimes(dir, at, at); err != nil {
			t.Fatal(err)
		}
	}
	aged := time.Now().Add(-time.Hour)
	setMtime(aged)
	if s, m := entries(); s != 1 || m != 1 {
		t.Fatalf("entries after one simulation: /v1/stats %d, /metrics %v", s, m)
	}
	if err := os.WriteFile(filepath.Join(dir, "decoy.sre"), []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	setMtime(aged)
	for i := 0; i < 10; i++ {
		if s, m := entries(); s != 1 || m != 1 {
			t.Fatalf("read %d listed the unchanged-looking directory: /v1/stats %d, /metrics %v", i, s, m)
		}
	}
	setMtime(aged.Add(time.Minute))
	if s, m := entries(); s != 2 || m != 2 {
		t.Fatalf("entries after the directory's mtime moved: /v1/stats %d, /metrics %v, want 2", s, m)
	}
}

// TestMetricsAfterSweep runs a real sweep through the API and checks the
// exposition: families spanning server, engine and store layers, engine
// counters consistent with the work done, and monotonic counters across
// scrapes.
func TestMetricsAfterSweep(t *testing.T) {
	ts, _, _ := newTelemetryServer(t, t.TempDir())
	r, err := http.Post(ts.URL+"/v1/sweeps?wait=1", "application/json", strings.NewReader(tinySweepBody))
	if err != nil {
		t.Fatal(err)
	}
	resp := decode[sweepResponse](t, r)
	if resp.Status != "done" {
		t.Fatalf("sweep status %q (%s)", resp.Status, resp.Error)
	}

	first := scrape(t, ts)
	for _, want := range []string{
		// server layer
		`slicc_http_requests_total{route="/v1/sweeps",method="POST",code="200"}`,
		"slicc_http_requests_in_flight",
		"slicc_sweep_cells_completed_total",
		// engine layer
		"slicc_sims_requested_total",
		"slicc_sims_executed_total",
		"slicc_instructions_simulated_total",
		"slicc_runner_op_stream_generator_passes_total",
		"slicc_runner_op_streams_recorded_total",
		"slicc_runner_machines_recycled_total",
		// store layer
		"slicc_store_entries",
		"slicc_store_puts_total",
		// tracing + process
		"slicc_uptime_seconds",
	} {
		if _, ok := first[want]; !ok {
			t.Errorf("missing sample %q", want)
		}
	}
	if first["slicc_sims_executed_total"] == 0 {
		t.Error("slicc_sims_executed_total is zero after a sweep")
	}
	// Each workload's two cells were submitted together, so every thread
	// stream was generated exactly once, recording as it went.
	if passes, recorded := first["slicc_runner_op_stream_generator_passes_total"], first["slicc_runner_op_streams_recorded_total"]; passes == 0 || passes != recorded {
		t.Errorf("op-stream generator passes = %v, streams recorded = %v; want equal and nonzero", passes, recorded)
	}
	if got := first["slicc_sweep_cells_completed_total"]; got != 4 {
		t.Errorf("sweep cells completed = %v, want 4 (2x2 sweep)", got)
	}
	if first["slicc_store_entries"] == 0 || first["slicc_store_puts_total"] == 0 {
		t.Errorf("store metrics empty: entries=%v puts=%v",
			first["slicc_store_entries"], first["slicc_store_puts_total"])
	}
	// Spans from the sweep's own execution (sweep.run, runner.job, sim.run)
	// land in the span histogram.
	if first[`slicc_span_duration_seconds_count{span="sweep.run"}`] == 0 {
		t.Errorf("no sweep.run spans recorded; samples: %v", keysWithPrefix(first, "slicc_span"))
	}
	if first[`slicc_span_duration_seconds_count{span="sim.run"}`] == 0 {
		t.Errorf("no sim.run spans recorded")
	}

	// More traffic, then re-scrape: every *_total counter is monotonic.
	if _, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	second := scrape(t, ts)
	for k, v := range first {
		if !strings.Contains(k, "_total") {
			continue
		}
		if second[k] < v {
			t.Errorf("counter %s went backwards: %v -> %v", k, v, second[k])
		}
	}
	if second[`slicc_http_requests_total{route="/metrics",method="GET",code="200"}`] < 1 {
		t.Error("the first scrape did not count itself")
	}
}

func keysWithPrefix(m map[string]float64, prefix string) []string {
	var out []string
	for k := range m {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	return out
}

// TestAccessLogs checks the logging contract: exactly one "request" line
// per request, each carrying the request ID the response header named,
// and error bodies echoing the same ID.
func TestAccessLogs(t *testing.T) {
	ts, _, buf := newTelemetryServer(t, "")

	get := func(path, reqID string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if reqID != "" {
			req.Header.Set("X-Request-ID", reqID)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	r1 := get("/healthz", "")
	if r1.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID generated for a bare request")
	}
	r1.Body.Close()

	r2 := get("/v1/stats", "my-req.2")
	if got := r2.Header.Get("X-Request-ID"); got != "my-req.2" {
		t.Errorf("client request ID not echoed: %q", got)
	}
	r2.Body.Close()

	// Malformed client IDs (spaces, over-long) are replaced, not echoed.
	r3 := get("/healthz", "bad id with spaces")
	if got := r3.Header.Get("X-Request-ID"); got == "bad id with spaces" || got == "" {
		t.Errorf("malformed client ID handling: %q", got)
	}
	r3.Body.Close()

	// A 404 carries the request ID in its JSON error body too.
	r4 := get("/no/such/route", "err-req-4")
	var errBody struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(r4.Body).Decode(&errBody); err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusNotFound || errBody.RequestID != "err-req-4" {
		t.Errorf("error body: status %d, request_id %q", r4.StatusCode, errBody.RequestID)
	}

	// Exactly one access line per request, every one with the full field
	// set, and the known IDs appear on their lines.
	type accessLine struct {
		Msg       string  `json:"msg"`
		RequestID string  `json:"request_id"`
		Method    string  `json:"method"`
		Route     string  `json:"route"`
		Path      string  `json:"path"`
		Status    int     `json:"status"`
		Duration  float64 `json:"duration"`
	}
	var access []accessLine
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var line accessLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("unparseable log line %q: %v", sc.Text(), err)
		}
		if line.Msg != "request" {
			continue
		}
		if line.RequestID == "" || line.Method == "" || line.Route == "" ||
			line.Path == "" || line.Status == 0 || line.Duration == 0 {
			t.Errorf("incomplete access line: %+v", line)
		}
		access = append(access, line)
	}
	if len(access) != 4 {
		t.Fatalf("want 4 access lines, got %d:\n%s", len(access), buf.String())
	}
	byID := make(map[string]accessLine)
	for _, l := range access {
		byID[l.RequestID] = l
	}
	if l, ok := byID["my-req.2"]; !ok || l.Route != "/v1/stats" || l.Status != 200 {
		t.Errorf("stats access line: %+v", l)
	}
	if l, ok := byID["err-req-4"]; !ok || l.Status != 404 || l.Route != "other" {
		t.Errorf("404 access line: %+v", l)
	}
}

// TestHealthzReadiness covers both sides of the readiness probe: a
// writable store answers ok/rw, a vanished store directory degrades to
// 503 with a reason. (Degradation is simulated by removing the directory
// — permission tricks don't bite when tests run as root.)
func TestHealthzReadiness(t *testing.T) {
	dir := t.TempDir()
	ts, _, _ := newTelemetryServer(t, dir)

	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthy status %d", r.StatusCode)
	}
	if got := decode[map[string]string](t, r); got["status"] != "ok" || got["store"] != "rw" {
		t.Fatalf("healthy body %v", got)
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	r2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded status %d, want 503", r2.StatusCode)
	}
	got := decode[map[string]string](t, r2)
	if got["status"] != "degraded" || got["store"] != "error" || got["reason"] == "" {
		t.Fatalf("degraded body %v", got)
	}
}

// TestMetricsDuringStreamingSweep scrapes /metrics from several goroutines
// while a streaming sweep runs and an SSE subscriber drains its events —
// the registry-race test at the service level (meaningful under -race).
func TestMetricsDuringStreamingSweep(t *testing.T) {
	ts, srv, _ := newTelemetryServer(t, "")
	calls := countSources(srv)
	var scrapes atomic.Int64

	r, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(tinySweepBody))
	if err != nil {
		t.Fatal(err)
	}
	id := decode[sweepResponse](t, r).ID

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					scrape(t, ts)
					scrapes.Add(1)
				}
			}
		}()
	}
	// Drain the event stream concurrently; it ends at the terminal event.
	wg.Add(1)
	go func() {
		defer wg.Done()
		er, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/events")
		if err != nil {
			t.Error(err)
			return
		}
		defer er.Body.Close()
		sc := bufio.NewScanner(er.Body)
		for sc.Scan() {
		}
	}()

	wr, err := http.Get(ts.URL + "/v1/sweeps/" + id + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	if st := decode[sweepResponse](t, wr).Status; st != "done" {
		t.Fatalf("sweep status %q", st)
	}
	close(stop)
	wg.Wait()

	final := scrape(t, ts)
	// However the scrapes interleaved with the running pool, each asked
	// every source exactly once (this server has no store and no queue).
	if n := scrapes.Load() + 1; calls.engine.Load() != n || calls.sweeps.Load() != n || calls.store.Load()+calls.queue.Load() != 0 {
		t.Errorf("%d scrapes sampled engine %d times, sweeps %d times, store %d, queue %d",
			n, calls.engine.Load(), calls.sweeps.Load(), calls.store.Load(), calls.queue.Load())
	}
	if final["slicc_sweep_cells_completed_total"] != 4 {
		t.Fatalf("cells completed %v", final["slicc_sweep_cells_completed_total"])
	}
	if final["slicc_http_requests_in_flight"] != 1 {
		// Only the scrape itself is in flight.
		t.Errorf("in flight %v, want 1", final["slicc_http_requests_in_flight"])
	}
}
