package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slicc/internal/telemetry/telemetrytest"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("slicc_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Same name+labels returns the same instance.
	if r.Counter("slicc_test_total", "a counter") != c {
		t.Fatal("counter lookup not idempotent")
	}
	g := r.Gauge("slicc_test_gauge", "a gauge")
	g.Set(2.5)
	g.Inc()
	g.Dec()
	g.Add(-0.5)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %v, want 2", got)
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("slicc_conflict", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("slicc_conflict", "x")
}

func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("slicc_reqs_total", "requests", L("route", "/healthz"), L("code", "200")).Add(3)
	r.Counter("slicc_reqs_total", "requests", L("route", "/metrics"), L("code", "200")).Inc()
	r.Gauge("slicc_in_flight", "in-flight requests").Set(2)
	h := r.Histogram("slicc_latency_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	SampleGroup(r, func() float64 { return 7 },
		Sampled[float64]{Name: "slicc_entries", Help: "entries", Value: func(v float64) float64 { return v }})

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP slicc_entries entries
# TYPE slicc_entries gauge
slicc_entries 7
# HELP slicc_in_flight in-flight requests
# TYPE slicc_in_flight gauge
slicc_in_flight 2
# HELP slicc_latency_seconds latency
# TYPE slicc_latency_seconds histogram
slicc_latency_seconds_bucket{le="0.1"} 1
slicc_latency_seconds_bucket{le="1"} 2
slicc_latency_seconds_bucket{le="+Inf"} 3
slicc_latency_seconds_sum 5.55
slicc_latency_seconds_count 3
# HELP slicc_reqs_total requests
# TYPE slicc_reqs_total counter
slicc_reqs_total{route="/healthz",code="200"} 3
slicc_reqs_total{route="/metrics",code="200"} 1
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// A second render is byte-identical (deterministic ordering).
	var b2 bytes.Buffer
	r.WritePrometheus(&b2)
	if b.String() != b2.String() {
		t.Fatal("exposition not deterministic across renders")
	}
}

// TestSampleGroupOneSnapshotPerScrape: a group's source is called once per
// exposition however many series read it, every series of one exposition
// is projected from that one call, and concurrent scrapes never mix calls.
func TestSampleGroupOneSnapshotPerScrape(t *testing.T) {
	r := NewRegistry()
	var calls atomic.Int64
	id := func(call int64) float64 { return float64(call) }
	SampleGroup(r, func() int64 { return calls.Add(1) },
		Sampled[int64]{Name: "slicc_a_total", Help: "a", Counter: true, Value: id},
		Sampled[int64]{Name: "slicc_b", Help: "b", Value: id, Labels: []Label{L("state", "x")}},
		Sampled[int64]{Name: "slicc_b", Help: "b", Value: id, Labels: []Label{L("state", "y")}},
		Sampled[int64]{Name: "slicc_z", Help: "z", Value: id})
	r.Counter("slicc_m_total", "a stored counter between the sampled ones").Inc()

	scrape := func() map[string]float64 {
		var b bytes.Buffer
		if err := r.WritePrometheus(&b); err != nil {
			t.Error(err)
		}
		return telemetrytest.ParsePrometheus(t, b.String())
	}
	const scrapers, each = 4, 25
	var wg sync.WaitGroup
	for i := 0; i < scrapers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				got := scrape()
				call := got["slicc_a_total"]
				for _, k := range []string{`slicc_b{state="x"}`, `slicc_b{state="y"}`, "slicc_z"} {
					if got[k] != call {
						t.Errorf("one exposition mixes snapshot calls: slicc_a_total from call %v, %s from call %v", call, k, got[k])
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := calls.Load(); got != scrapers*each {
		t.Fatalf("%d scrapes called the group's source %d times", scrapers*each, got)
	}
	var b bytes.Buffer
	r.WritePrometheus(&b)
	if out := b.String(); !strings.Contains(out, "# TYPE slicc_a_total counter\n") || !strings.Contains(out, "# TYPE slicc_z gauge\n") {
		t.Fatalf("sampled series lost their types:\n%s", out)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a second source for an existing sampled series did not panic")
		}
	}()
	SampleGroup(r, func() int64 { return 0 }, Sampled[int64]{Name: "slicc_z", Help: "z", Value: id})
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("slicc_esc_total", "with \\ and\nnewline", L("v", "a\"b\\c\nd")).Inc()
	var b bytes.Buffer
	r.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, `# HELP slicc_esc_total with \\ and\nnewline`) {
		t.Fatalf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `slicc_esc_total{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("slicc_h_total", "h").Add(2)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	samples := telemetrytest.ParsePrometheus(t, rec.Body.String())
	if samples["slicc_h_total"] != 2 {
		t.Fatalf("samples %v", samples)
	}
}

// TestConcurrentRegistryUpdates exercises every metric kind from many
// goroutines while scrapes run — the -race test the issue calls for.
func TestConcurrentRegistryUpdates(t *testing.T) {
	r := NewRegistry()
	var workers sync.WaitGroup
	for i := 0; i < 8; i++ {
		workers.Add(1)
		go func(i int) {
			defer workers.Done()
			c := r.Counter("slicc_conc_total", "c", L("w", fmt.Sprint(i%2)))
			g := r.Gauge("slicc_conc_gauge", "g")
			h := r.Histogram("slicc_conc_seconds", "h", nil)
			for j := 0; j < 2000; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(j%7) / 100)
			}
		}(i)
	}
	// Scrape continuously while the writers run.
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				var b bytes.Buffer
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	workers.Wait()
	close(stop)
	<-scraped

	total := r.Counter("slicc_conc_total", "c", L("w", "0")).Value() +
		r.Counter("slicc_conc_total", "c", L("w", "1")).Value()
	if total != 8*2000 {
		t.Fatalf("lost counter increments: %d != %d", total, 8*2000)
	}
	if got := r.Histogram("slicc_conc_seconds", "h", nil).Count(); got != 8*2000 {
		t.Fatalf("lost observations: %d", got)
	}
	if g := r.Gauge("slicc_conc_gauge", "g").Value(); g != 0 {
		t.Fatalf("gauge drifted: %v", g)
	}
}

func TestNewLogger(t *testing.T) {
	var b bytes.Buffer
	lg, err := NewLogger(&b, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hidden")
	lg.Info("shown", "k", "v")
	var rec map[string]any
	if err := json.Unmarshal(b.Bytes(), &rec); err != nil {
		t.Fatalf("not one JSON line: %q (%v)", b.String(), err)
	}
	if rec["msg"] != "shown" || rec["k"] != "v" {
		t.Fatalf("record %v", rec)
	}
	if strings.Contains(b.String(), "hidden") {
		t.Fatal("debug line leaked at info level")
	}
	if _, err := NewLogger(&b, "xml", "info"); err == nil {
		t.Fatal("bad format accepted")
	}
	if _, err := NewLogger(&b, "text", "loud"); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestRequestIDAndContext(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || a == b {
		t.Fatalf("ids %q %q", a, b)
	}
	ctx := context.Background()
	if RequestID(ctx) != "" {
		t.Fatal("empty ctx has an id")
	}
	ctx = WithRequestID(ctx, a)
	if RequestID(ctx) != a {
		t.Fatal("id not carried")
	}
	if Logger(ctx) == nil {
		t.Fatal("Logger returned nil")
	}
	lg := NopLogger()
	if Logger(WithLogger(ctx, lg)) != lg {
		t.Fatal("logger not carried")
	}
}

func TestSpans(t *testing.T) {
	// No tracer: nil span, all methods inert.
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "noop")
	if sp != nil || ctx2 != ctx {
		t.Fatal("span without tracer should be nil and ctx unchanged")
	}
	sp.SetAttrs(slog.String("k", "v"))
	sp.End()

	// Tracer: spans nest, log at debug, and feed OnSpan.
	var b bytes.Buffer
	lg, _ := NewLogger(&b, "json", "debug")
	var durations []time.Duration
	var names []string
	tr := &Tracer{Logger: lg, OnSpan: func(name string, d time.Duration) {
		names = append(names, name)
		durations = append(durations, d)
	}}
	ctx = WithTracer(WithRequestID(context.Background(), "req1234"), tr)
	ctx, outer := StartSpan(ctx, "outer")
	_, inner := StartSpan(ctx, "inner", slog.Int("cells", 4))
	inner.End()
	outer.End()

	if len(names) != 2 || names[0] != "inner" || names[1] != "outer" {
		t.Fatalf("OnSpan order %v", names)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 span log lines, got %d:\n%s", len(lines), b.String())
	}
	var in, out map[string]any
	json.Unmarshal([]byte(lines[0]), &in)
	json.Unmarshal([]byte(lines[1]), &out)
	if in["trace_id"] != "req1234" || out["trace_id"] != "req1234" {
		t.Fatalf("trace ids: %v / %v", in["trace_id"], out["trace_id"])
	}
	if in["parent_id"] != out["span_id"] {
		t.Fatalf("inner parent %v != outer id %v", in["parent_id"], out["span_id"])
	}
	if in["cells"] != float64(4) {
		t.Fatalf("attr lost: %v", in)
	}
	if _, ok := out["parent_id"]; ok {
		t.Fatal("root span has a parent")
	}
}

func TestSpanWithoutRequestIDGetsOwnTrace(t *testing.T) {
	ctx := WithTracer(context.Background(), &Tracer{})
	_, sp := StartSpan(ctx, "solo")
	if sp.Trace == "" || sp.Trace != sp.ID {
		t.Fatalf("solo span trace %q id %q", sp.Trace, sp.ID)
	}
	sp.End()
}
