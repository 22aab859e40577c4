package main

// The traced run's span recorder. Spans are recorded from this package's
// own files, at the seams the product already exposes: an http.Handler
// around Server.Handler(), an http.RoundTripper under the SDK and worker
// clients, a slicc.RemoteRunner around the queue dispatcher, the sweep
// event callback, and the hop-by-hop replay in replay.go. Nothing is added
// inside the program under test. Spans stay in memory and are written out
// once, when the run ends.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"slicc"
)

// span is one timed interval: what ran, when (ns since the recorder
// started), which span caused it, and the pass and cell it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Pass   int    `json:"pass"`
	Cell   string `json:"cell,omitempty"`
}

// recorder collects spans. A nil *recorder records nothing, so untraced
// runs call the same code paths without branching at every seam.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	pass  int // current pass number
	root  int // current pass's span id: the default parent
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id. parent 0 means the current pass.
func (r *recorder) begin(name string, parent int, cell string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if parent == 0 {
		parent = r.root
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1, Pass: r.pass, Cell: cell})
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// mark records an instant (a zero-length span), e.g. a delivered event.
func (r *recorder) mark(name, cell string) {
	r.end(r.begin(name, 0, cell))
}

// beginPass opens a root span; spans begun without a parent hang off it
// until endPass.
func (r *recorder) beginPass(name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.pass++
	r.root = 0
	r.mu.Unlock()
	id := r.begin(name, 0, "")
	r.mu.Lock()
	r.root = id
	r.mu.Unlock()
	return id
}

func (r *recorder) endPass(id int) {
	if r == nil {
		return
	}
	r.end(id)
	r.mu.Lock()
	r.root = 0
	r.mu.Unlock()
}

// seconds returns the durations of the finished spans named name within
// the pass whose root span is root.
func (r *recorder) seconds(root int, name string) []float64 {
	if r == nil || root == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	pass := r.spans[root-1].Pass
	var out []float64
	for _, s := range r.spans {
		if s.Pass == pass && s.End >= 0 && s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// clientOverheads returns, for every finished non-streaming client span of
// the pass rooted at root, its duration minus the server span it caused:
// what the SDK, the HTTP client and the loopback hop cost per exchange.
func (r *recorder) clientOverheads(root int) []float64 {
	if r == nil || root == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	pass := r.spans[root-1].Pass
	var out []float64
	for _, s := range r.spans {
		if s.Pass != pass || s.End < 0 || !strings.HasPrefix(s.Name, "server ") || strings.HasSuffix(s.Name, "/events") {
			continue
		}
		if s.Parent == 0 || s.Parent > len(r.spans) {
			continue
		}
		c := r.spans[s.Parent-1]
		if c.End >= 0 && strings.HasPrefix(c.Name, "client ") {
			out = append(out, float64((c.End-c.Start)-(s.End-s.Start))/1e9)
		}
	}
	return out
}

// spanSummary aggregates spans of one name: how many, their total
// duration, and their self time — duration minus the part of it their
// child spans cover.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (r *recorder) summary() []spanSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()

	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.End >= 0 && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := make(map[string]*spanSummary)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		dur := s.End - s.Start
		sum.Count++
		sum.TotalMS += float64(dur) / 1e6
		sum.SelfMS += float64(dur-covered(children[s.ID], s.Start, s.End)) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of [lo, hi] the intervals cover, counting
// overlaps once.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	at := lo
	for _, x := range iv {
		s, e := max(x[0], at), min(x[1], hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// spanHeader carries the client span's id to the handler wrapper, which
// records it as the server span's parent. Both ends are benchmark code;
// the product passes the header through untouched.
const spanHeader = "X-Bench-Span"

// handler wraps the service's handler with one span per request.
func (r *recorder) handler(next http.Handler) http.Handler {
	if r == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.Atoi(req.Header.Get(spanHeader))
		id := r.begin("server "+routeName(req), parent, "")
		next.ServeHTTP(w, req)
		r.end(id)
	})
}

// transport wraps a client's RoundTripper with one span per exchange,
// from the request leaving to the response body being closed.
func (r *recorder) transport(next http.RoundTripper) http.RoundTripper {
	if r == nil {
		return next
	}
	return &tracedTransport{next: next, rec: r}
}

type tracedTransport struct {
	next http.RoundTripper
	rec  *recorder
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.rec.begin("client "+routeName(req), 0, "")
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(id))
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		t.rec.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.rec.end(id) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// routeName renders a request as "METHOD /pattern": content keys (64 hex
// characters) become {id} so spans aggregate per route, not per resource.
func routeName(req *http.Request) string {
	parts := strings.Split(req.URL.Path, "/")
	for i, p := range parts {
		if len(p) == 64 {
			parts[i] = "{id}"
		}
	}
	name := req.Method + " " + strings.Join(parts, "/")
	if req.Method == http.MethodGet && req.Header.Get("If-None-Match") != "" {
		name += " (conditional)"
	}
	return name
}

// remote wraps the queue dispatcher with one span per remotely executed
// job: enqueue, the wait for a lease, the worker's run and the ack.
func (r *recorder) remote(next slicc.RemoteRunner) slicc.RemoteRunner {
	if r == nil {
		return next
	}
	return &tracedRemote{next: next, rec: r}
}

type tracedRemote struct {
	next slicc.RemoteRunner
	rec  *recorder
}

func (t *tracedRemote) Execute(ctx context.Context, key string, job []byte) error {
	id := t.rec.begin("queue.execute", 0, key[:min(12, len(key))])
	err := t.next.Execute(ctx, key, job)
	t.rec.end(id)
	return err
}

// traceFile is what a traced run leaves in benchmark/out/.
type traceFile struct {
	Host     hostInfo           `json:"host"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Size     string             `json:"size"`
	Metrics  map[string]float64 `json:"per_layer"`
	Budget   []budgetRow        `json:"cell_budget,omitempty"`
	Summary  []spanSummary      `json:"span_summary"`
	Spans    []span             `json:"spans"`
}

func (r *recorder) write(path string, tf traceFile) error {
	r.mu.Lock()
	tf.Spans = append([]span(nil), r.spans...)
	r.mu.Unlock()
	tf.Summary = r.summary()
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
