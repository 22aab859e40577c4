// Package telemetry is the zero-dependency observability layer shared by
// sliccd and the engine: a Prometheus-text metrics registry, structured
// logging helpers over log/slog, and lightweight context-propagated spans.
//
// The repo is stdlib-only by design, so this package reimplements the
// small slice of the Prometheus client it needs instead of importing it:
// atomic counters and gauges, fixed-bucket histograms, sample groups for
// bridging counters kept elsewhere (runner.Stats, store.Stats: one
// snapshot call per scrape, every series projected from it), and
// text-format exposition. The exposition is deterministic — families and
// series are emitted in sorted order — so golden tests can diff it.
//
// Hot-path rule: nothing in this package may be called from the
// per-instruction simulation loop. Instrumentation happens at request,
// job and cell granularity only; the CI bench-gate enforces that the
// simulator's throughput floors hold.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric types, as exposed in `# TYPE` lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Label is one name=value metric dimension. Keep cardinality bounded:
// label values must come from small fixed sets (route patterns, methods,
// status codes) — never request IDs or arbitrary client input.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing metric. Values are float64 on the
// wire but held as integral atomic counts internally.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. It holds a float64 behind
// atomic bit operations.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed cumulative buckets, plus a
// running sum and count. Observe is lock-free (one atomic add per bucket
// walk miss, one for count, a CAS loop for the float sum), cheap enough
// for request/job granularity.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf bucket is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// DefBuckets is the default latency bucket layout, in seconds: half a
// millisecond through one minute. Request handling spans five orders of
// magnitude here (a store-hit poll is ~100µs; a cold quick sweep is tens
// of seconds), hence the wide spread.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// series is one labelled instance within a family.
type series struct {
	labels []Label
	sig    string // canonical label signature, the sort/dedup key

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	// sample, when set, makes this a sampled series (SampleGroup): its
	// value is projected from its group's snapshot for the scrape being
	// rendered, instead of read from a stored value.
	sample func(scrape) float64
}

// group is one SampleGroup registration: the call every series of the
// group is projected from.
type group struct {
	snapshot func() any
}

// scrape holds the group snapshots of one exposition: each is taken when
// the first series of its group is rendered and kept for that exposition
// only, so concurrent scrapes never share one.
type scrape map[*group]any

func (sc scrape) snapshot(g *group) any {
	snap, ok := sc[g]
	if !ok {
		snap = g.snapshot()
		sc[g] = snap
	}
	return snap
}

// family is one named metric with its help text, type, and series.
type family struct {
	name, help, typ string
	buckets         []float64 // histograms only
	series          map[string]*series
}

// Registry holds a process's metric families and renders them in
// Prometheus text exposition format. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use; metric handles
// (Counter, Gauge, Histogram) are safe to update concurrently with
// scrapes.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns (creating as needed) the series for name+labels,
// verifying type/help consistency. It panics on a name registered twice
// with conflicting type — always a programming error worth failing loud.
// A non-nil sample creates a sampled series, which must not exist yet: two
// sources for one series is the same kind of error.
func (r *Registry) lookup(name, help, typ string, buckets []float64, labels []Label, sample func(scrape) float64) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	sig := labelSignature(labels)
	s, ok := f.series[sig]
	if ok && sample != nil {
		panic(fmt.Sprintf("telemetry: sampled series %s%s registered twice", name, labelString(labels)))
	}
	if !ok {
		s = &series{labels: append([]Label(nil), labels...), sig: sig, sample: sample}
		switch typ {
		case typeCounter:
			s.counter = &Counter{}
		case typeGauge:
			s.gauge = &Gauge{}
		case typeHistogram:
			s.hist = newHistogram(f.buckets)
		}
		f.series[sig] = s
	}
	return s
}

// Counter returns the counter for name+labels, registering it on first
// use. Repeated calls with the same name and labels return the same
// counter, so call sites may look metrics up per event.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, typeCounter, nil, labels, nil).counter
}

// Gauge returns the gauge for name+labels, registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, typeGauge, nil, labels, nil).gauge
}

// Histogram returns the histogram for name+labels, registering it on
// first use. buckets apply on first registration of the family (nil =
// DefBuckets) and are shared by every series in it.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.lookup(name, help, typeHistogram, buckets, labels, nil).hist
}

// Sampled is one series of a SampleGroup: a counter or gauge whose value
// is projected from the group's snapshot at scrape time — the bridge for
// numbers maintained elsewhere (engine stats, store occupancy, queue
// depth).
type Sampled[S any] struct {
	Name, Help string
	// Counter exposes the series as TYPE counter (the source must be
	// monotonic); false is a gauge.
	Counter bool
	Labels  []Label
	Value   func(S) float64
}

// SampleGroup registers series that all read one snapshot: each
// WritePrometheus calls snapshot once and projects every series of the
// group from that one value, so a scrape costs one call per source however
// many families it feeds, and the families of one exposition describe one
// instant. snapshot is called from scraping goroutines, concurrently if
// scrapes overlap.
func SampleGroup[S any](r *Registry, snapshot func() S, series ...Sampled[S]) {
	g := &group{snapshot: func() any { return snapshot() }}
	for _, sd := range series {
		typ := typeGauge
		if sd.Counter {
			typ = typeCounter
		}
		r.lookup(sd.Name, sd.Help, typ, nil, sd.Labels, func(sc scrape) float64 { return sd.Value(sc.snapshot(g).(S)) })
	}
}

// WritePrometheus renders every family in text exposition format, sorted
// by family name and series label signature so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	sc := make(scrape)
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		sers := make([]*series, 0, len(f.series))
		r.mu.Lock()
		for _, s := range f.series {
			sers = append(sers, s)
		}
		r.mu.Unlock()
		sort.Slice(sers, func(i, j int) bool { return sers[i].sig < sers[j].sig })
		for _, s := range sers {
			writeSeries(&b, f, s, sc)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSeries(b *strings.Builder, f *family, s *series, sc scrape) {
	switch {
	case s.sample != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(s.labels), formatFloat(s.sample(sc)))
	case s.counter != nil:
		fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(s.labels), s.counter.Value())
	case s.gauge != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(s.labels), formatFloat(s.gauge.Value()))
	case s.hist != nil:
		// Cumulative buckets: each le bound reports observations at or
		// below it, ending with the implicit +Inf bucket == _count.
		var cum uint64
		for i, ub := range s.hist.bounds {
			cum += s.hist.counts[i].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
				labelString(append(append([]Label(nil), s.labels...), L("le", formatFloat(ub)))), cum)
		}
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
			labelString(append(append([]Label(nil), s.labels...), L("le", "+Inf"))), s.hist.Count())
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(s.labels), formatFloat(s.hist.Sum()))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(s.labels), s.hist.Count())
	}
}

// Handler returns an http.Handler serving the registry in text exposition
// format — the body behind GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// labelSignature canonicalizes a label set for map keying and sort order.
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "=" + l.Value
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// labelString renders {name="value",…} in caller order (the exposition
// format does not require sorted labels; determinism comes from series
// iteration order). %q escapes exactly what the format demands: backslash,
// double-quote, and newline.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s=%q", l.Name, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(h string) string { return helpEscaper.Replace(h) }

// formatFloat renders a float the way the exposition format expects:
// integral values without exponent noise, minimal digits otherwise.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
