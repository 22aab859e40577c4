package sdk

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slicc"
	"slicc/internal/server"
)

// tinySpec is a 4-cell sweep (2 workloads x 2 policies) small enough for
// integration tests.
func tinySpec() slicc.SweepSpec {
	return slicc.SweepSpec{
		Name:      "sdk-test",
		Workloads: []string{"tpcc1", "skewed"},
		Policies:  []string{"base", "slicc-sw"},
		Threads:   slicc.SweepInts(6),
		Scales:    slicc.SweepFloats(0.05),
	}
}

// realService boots an actual sliccd handler on an httptest server.
func realService(t *testing.T) *Client {
	t.Helper()
	eng, err := slicc.NewEngine(slicc.EngineOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, server.Options{Timeout: time.Minute})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		eng.Close()
	})
	return New(ts.URL)
}

// TestWatchSweepEndToEnd drives a real engine: submit, stream to done,
// every cell exactly once, final result matching a plain GET.
func TestWatchSweepEndToEnd(t *testing.T) {
	c := realService(t)
	ctx := context.Background()

	var mu sync.Mutex
	cells := map[int]int{}
	res, err := c.WatchSweep(ctx, tinySpec(), func(ev slicc.SweepEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Type == slicc.SweepEventCell {
			cells[ev.Index]++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("result has %d cells, want 4", len(res.Cells))
	}
	for i := range res.Cells {
		if cells[i] != 1 {
			t.Fatalf("cell %d observed %d times, want exactly once (%v)", i, cells[i], cells)
		}
	}

	// The streamed run is the same resource the plain API sees.
	id, err := tinySpec().Key()
	if err != nil {
		t.Fatal(err)
	}
	sw, err := c.Sweep(ctx, id, true)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Status != "done" || !reflect.DeepEqual(sw.Result, res) {
		t.Fatalf("GET sweep diverges from WatchSweep: %+v", sw)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sweeps != 1 || st.Engine.SimsRequested == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSimulationRoundTrip(t *testing.T) {
	c := realService(t)
	cfg := slicc.Config{Benchmark: slicc.TPCC1, Threads: 4, Scale: 0.05}
	sim, err := c.SubmitSimulation(context.Background(), cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Status != "done" || sim.Result == nil || sim.Result.Instructions == 0 {
		t.Fatalf("simulation %+v", sim)
	}
	again, err := c.Simulation(context.Background(), sim.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Result, sim.Result) {
		t.Fatal("GET result diverges from submit result")
	}
}

// tinyRows fabricates metrics for tinySpec's real expansion, so scripted
// streams can be assembled into a result: one base-policy baseline per
// workload, then each workload's base and slicc-sw cells.
func tinyRows() (cells, baselines []slicc.SweepCellResult) {
	row := func(workload, policy string, cycles, speedup float64) slicc.SweepCellResult {
		var r slicc.SweepCellResult
		r.Workload, r.Threads, r.Seed, r.Scale = workload, 6, 1, 0.05
		r.Cores, r.L1IKB, r.L1DKB, r.Policy = 16, 32, 32, policy
		r.Instructions, r.Cycles, r.Speedup = 1000, cycles, speedup
		return r
	}
	baselines = []slicc.SweepCellResult{row("tpcc1", "base", 1000, 1), row("skewed", "base", 1000, 1)}
	cells = []slicc.SweepCellResult{
		row("tpcc1", "base", 1000, 1), row("tpcc1", "slicc-sw", 800, 1.25),
		row("skewed", "base", 1000, 1), row("skewed", "slicc-sw", 500, 2),
	}
	return cells, baselines
}

func writeEvent(w http.ResponseWriter, seq int, ev slicc.SweepEvent) {
	ev.Seq = seq
	b, _ := json.Marshal(ev)
	fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, seq, b)
	w.(http.Flusher).Flush()
}

func cellEvent(i int) slicc.SweepEvent {
	cells, _ := tinyRows()
	return slicc.SweepEvent{Type: slicc.SweepEventCell, Index: i, Completed: i + 1, Total: 4, Cell: &cells[i]}
}

func baselineEvent(i int) slicc.SweepEvent {
	_, baselines := tinyRows()
	return slicc.SweepEvent{Type: slicc.SweepEventBaseline, Index: i, Total: 4, Cell: &baselines[i]}
}

// tinyStream is a whole run of tinySpec as a service emits it: each
// group's baseline ahead of its cells.
func tinyStream() []slicc.SweepEvent {
	return []slicc.SweepEvent{
		baselineEvent(0), cellEvent(0), cellEvent(1),
		baselineEvent(1), cellEvent(2), cellEvent(3),
	}
}

// scriptedSweepService fakes the sweep routes a watcher uses: POST
// /v1/sweeps echoes the spec under id "s1", as sliccd echoes the spec it
// runs, and every events connection is served by stream (conn counts
// from 1). It counts POSTs and GETs of the sweep resource, which a
// watcher never needs.
func scriptedSweepService(t *testing.T, stream func(conn int32, w http.ResponseWriter)) (c *Client, posts, gets *atomic.Int32) {
	posts, gets = new(atomic.Int32), new(atomic.Int32)
	var conns atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		var spec slicc.SweepSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			t.Errorf("POST body: %v", err)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"id": "s1", "status": "running", "spec": spec, "total": 4})
	})
	mux.HandleFunc("GET /v1/sweeps/s1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		stream(conns.Add(1), w)
	})
	mux.HandleFunc("GET /v1/sweeps/s1", func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return New(ts.URL, WithBackoff(time.Millisecond, 10*time.Millisecond)), posts, gets
}

// TestStreamReconnectsWithLastEventID scripts a service whose first
// stream connection dies after two events: the client must redial with
// Last-Event-ID and deliver the tail exactly once.
func TestStreamReconnectsWithLastEventID(t *testing.T) {
	var conns atomic.Int32
	var gotResume atomic.Value
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/sweeps/s1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		switch conns.Add(1) {
		case 1:
			writeEvent(w, 1, cellEvent(0))
			writeEvent(w, 2, cellEvent(1))
			// Die without a terminal event, mid-stream.
			panic(http.ErrAbortHandler)
		default:
			gotResume.Store(r.Header.Get("Last-Event-ID"))
			writeEvent(w, 3, cellEvent(2))
			writeEvent(w, 4, cellEvent(3))
			writeEvent(w, 5, slicc.SweepEvent{Type: slicc.SweepEventDone, Status: "done", Completed: 4, Total: 4})
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(ts.URL, WithBackoff(time.Millisecond, 10*time.Millisecond))
	st, err := c.StreamSweep(context.Background(), "s1")
	if err != nil {
		t.Fatal(err)
	}
	var seqs []int
	for {
		ev, err := st.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			t.Fatal(err)
		}
		seqs = append(seqs, ev.Seq)
	}
	if !reflect.DeepEqual(seqs, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("delivered seqs %v, want 1..5 with no gaps or duplicates", seqs)
	}
	if got := gotResume.Load(); got != "2" {
		t.Fatalf("reconnect sent Last-Event-ID %v, want \"2\"", got)
	}
	if conns.Load() != 2 {
		t.Fatalf("%d connections, want 2", conns.Load())
	}
}

// TestWatchSweepSurvivesServiceRestart scripts the crash contract: the
// service forgets the sweep (404 on reconnect), WatchSweep re-POSTs the
// spec, and the observer still sees every cell exactly once. The result
// is assembled from the delivered rows: the sweep resource is never
// fetched.
func TestWatchSweepSurvivesServiceRestart(t *testing.T) {
	spec := tinySpec()
	norm, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	cells, baselines := tinyRows()
	result := &slicc.SweepResult{
		Name: spec.Name, Objective: "speedup", Spec: norm,
		Cells: cells, Baselines: baselines, BestIndex: 3,
	}
	c, posts, gets := scriptedSweepService(t, func(conn int32, w http.ResponseWriter) {
		switch conn {
		case 1:
			// Pre-restart run: a baseline and two cells, then the process
			// dies.
			for i, ev := range tinyStream()[:3] {
				writeEvent(w, i+1, ev)
			}
			panic(http.ErrAbortHandler)
		case 2:
			// Post-restart service: the sweep is unknown.
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": "unknown sweep"})
		default:
			// Resubmitted run replays from scratch: the first three events
			// are store hits the client has already seen and must
			// deduplicate.
			for i, ev := range tinyStream() {
				ev.StoreHit = i < 3
				writeEvent(w, i+1, ev)
			}
			writeEvent(w, 7, slicc.SweepEvent{Type: slicc.SweepEventDone, Status: "done", Completed: 4, Total: 4})
		}
	})

	var mu sync.Mutex
	delivered := map[[2]string]int{}
	res, err := c.WatchSweep(context.Background(), spec, func(ev slicc.SweepEvent) {
		mu.Lock()
		defer mu.Unlock()
		delivered[[2]string{ev.Type, fmt.Sprint(ev.Index)}]++
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, result) {
		t.Fatalf("result %+v\nwant %+v", res, result)
	}
	for _, ev := range tinyStream() {
		if n := delivered[[2]string{ev.Type, fmt.Sprint(ev.Index)}]; n != 1 {
			t.Fatalf("%s %d delivered %d times across the restart, want exactly once (%v)", ev.Type, ev.Index, n, delivered)
		}
	}
	if posts.Load() != 2 {
		t.Fatalf("%d spec POSTs, want 2 (initial + post-restart resubmit)", posts.Load())
	}
	if gets.Load() != 0 {
		t.Fatalf("%d GETs of the sweep resource, want 0", gets.Load())
	}
}

func TestSweepGoneMapsTo404(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": "unknown sweep"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := New(ts.URL)
	if _, err := c.Sweep(context.Background(), "nope", false); !errors.Is(err, ErrSweepGone) {
		t.Fatalf("GET unknown sweep: %v, want ErrSweepGone", err)
	}
	if _, err := c.ResumeSweep(context.Background(), "nope", false); !errors.Is(err, ErrSweepGone) {
		t.Fatalf("resume unknown sweep: %v, want ErrSweepGone", err)
	}
	if _, err := c.StreamSweep(context.Background(), "nope"); !errors.Is(err, ErrSweepGone) {
		t.Fatalf("stream unknown sweep: %v, want ErrSweepGone", err)
	}
	var ae *APIError
	_, err := c.Sweep(context.Background(), "nope", false)
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("ErrSweepGone lost its APIError: %v", err)
	}
}

// TestRequestIDs checks the client side of the request-ID contract: every
// request sends X-Request-ID, a pinned ID survives the round trip, and a
// failing call's error carries the ID for log correlation.
func TestRequestIDs(t *testing.T) {
	var seen atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		seen.Store(id)
		w.Header().Set("X-Request-ID", id)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintf(w, `{"error":"nope","request_id":%q}`, id)
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL)

	_, err := c.Stats(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("want APIError, got %v", err)
	}
	auto, _ := seen.Load().(string)
	if auto == "" {
		t.Fatal("client sent no X-Request-ID")
	}
	if ae.RequestID != auto {
		t.Fatalf("error RequestID %q, header sent %q", ae.RequestID, auto)
	}
	if got := ae.Error(); !strings.Contains(got, auto) || !strings.Contains(got, "nope") {
		t.Fatalf("error string %q misses id or message", got)
	}

	// A caller-pinned ID is used verbatim.
	ctx := WithRequestID(context.Background(), "pinned-id-1")
	_, err = c.Stats(ctx)
	if errors.As(err, &ae); ae.RequestID != "pinned-id-1" {
		t.Fatalf("pinned id lost: %+v", ae)
	}
}

// TestConditionalGetAgainstRealService drives the full conditional-GET
// loop against a real handler: first poll caches the validator, second
// poll goes out with If-None-Match, comes back 304, and is surfaced as
// NotModified with the identical decoded result.
func TestConditionalGetAgainstRealService(t *testing.T) {
	c := realService(t)
	ctx := context.Background()
	sw, err := c.SubmitSweep(ctx, tinySpec(), true)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Status != "done" {
		t.Fatalf("sweep %+v", sw)
	}

	first, err := c.Sweep(ctx, sw.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if first.NotModified {
		t.Fatal("first poll claims NotModified with no cached validator")
	}
	second, err := c.Sweep(ctx, sw.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if !second.NotModified {
		t.Fatal("second poll of a done sweep was not served 304")
	}
	second.NotModified = first.NotModified
	if !reflect.DeepEqual(first, second) {
		t.Fatal("304 replay decodes differently from the 200 body")
	}

	// Simulations participate too.
	cfg := slicc.Config{Benchmark: slicc.TPCC1, Threads: 4, Scale: 0.05}
	sim, err := c.SubmitSimulation(ctx, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Simulation(ctx, sim.ID, false); err != nil {
		t.Fatal(err)
	}
	again, err := c.Simulation(ctx, sim.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if !again.NotModified {
		t.Fatal("second simulation poll was not served 304")
	}
}

// TestConditionalGetScripted pins the wire behavior: what the client
// sends, and that a 304 without a cached body never happens (the header
// is only sent when a body is cached).
func TestConditionalGetScripted(t *testing.T) {
	var inm atomic.Value
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		inm.Store(r.Header.Get("If-None-Match"))
		w.Header().Set("ETag", `"abc"`)
		if r.Header.Get("If-None-Match") == `"abc"` {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"abc","status":"done","completed":4,"total":4}`)
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	ctx := context.Background()

	sw, err := c.Sweep(ctx, "abc", false)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := inm.Load().(string); got != "" {
		t.Fatalf("first request sent If-None-Match %q", got)
	}
	if sw.NotModified || sw.Completed != 4 {
		t.Fatalf("first poll %+v", sw)
	}

	sw2, err := c.Sweep(ctx, "abc", false)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := inm.Load().(string); got != `"abc"` {
		t.Fatalf("second request sent If-None-Match %q", got)
	}
	if !sw2.NotModified || sw2.Completed != 4 || sw2.ID != "abc" {
		t.Fatalf("304 replay %+v", sw2)
	}
	if calls != 2 {
		t.Fatalf("%d requests", calls)
	}
}

// TestStatsMirrorsCacheFields: the typed Stats surface carries the new
// store-tier and response-cache fields end to end.
func TestStatsMirrorsCacheFields(t *testing.T) {
	eng, err := slicc.NewEngine(slicc.EngineOptions{
		Workers: 2, StoreDir: t.TempDir(), StoreMemBytes: 8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, server.Options{Timeout: time.Minute})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close(); eng.Close() })
	c := New(ts.URL)
	ctx := context.Background()

	sim, err := c.SubmitSimulation(ctx, slicc.Config{Benchmark: slicc.TPCC1, Threads: 4, Scale: 0.05}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Simulation(ctx, sim.ID, false); err != nil { // cache miss
		t.Fatal(err)
	}
	if _, err := c.Simulation(ctx, sim.ID, false); err != nil { // 304
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Store == nil {
		t.Fatal("no store stats")
	}
	if st.Store.MemEntries == 0 || st.Store.MemBytes == 0 {
		t.Fatalf("mem tier empty after a store put: %+v", st.Store)
	}
	if st.ResponseCache.Misses == 0 || st.ResponseCache.NotModified == 0 {
		t.Fatalf("response cache stats %+v", st.ResponseCache)
	}
}
