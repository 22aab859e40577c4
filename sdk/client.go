// Package sdk is the Go client for sliccd, the slicc HTTP service. It
// wraps the JSON API (submit/poll simulations and sweeps, stats) and the
// sweep event stream (Server-Sent Events) behind typed methods, reusing
// the root package's types so client and engine code read the same.
//
// The streaming client leans on the service's resume contract instead of
// inventing its own state: SSE reconnects carry Last-Event-ID so the
// server's lossless replay fills any gap, and when a sweep vanishes
// entirely (service restart — ErrSweepGone) WatchSweep re-POSTs the spec,
// whose id is its content key, and previously finished cells come back
// instantly as store hits. Callers observe every cell exactly once either
// way, and the result WatchSweep returns is assembled from those same
// delivered cells, so a watched sweep's cells cross the wire once;
// Client.Sweep (GET /v1/sweeps/{id}) is the poller's view of the same
// result.
package sdk

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"slicc"
)

// Every request carries an X-Request-ID header — caller-provided via
// WithRequestID, otherwise generated — which the service echoes in its
// response header, error bodies and access log. An APIError carries the
// ID back, so a failing call's error string names the exact server log
// line to look at.

// requestIDKey carries a caller-chosen request ID in a context.
type requestIDKey struct{}

// WithRequestID returns a context that pins the X-Request-ID the client
// sends for requests made with it (at most 64 bytes of letters, digits,
// '.', '_' and '-', or the service substitutes its own). Without it every
// request gets a fresh generated ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// requestID returns the context's pinned request ID or a generated one.
func requestID(ctx context.Context) string {
	if id, ok := ctx.Value(requestIDKey{}).(string); ok && id != "" {
		return id
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ErrSweepGone reports that the service no longer tracks the requested
// sweep: it was evicted, or the service restarted. The recovery is to
// re-POST the spec — ids are content keys, so the resubmitted sweep has
// the same id and every previously finished cell is a store hit.
// WatchSweep does this automatically.
var ErrSweepGone = errors.New("sweep no longer tracked by the service")

// APIError is a non-2xx response from the service, carrying its JSON
// error message and the request ID the failing exchange used.
type APIError struct {
	StatusCode int
	Message    string
	// RequestID identifies the failed request in the service's logs (from
	// the error body, falling back to the X-Request-ID response header).
	RequestID string
}

func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("sliccd: %d: %s (request %s)", e.StatusCode, e.Message, e.RequestID)
	}
	return fmt.Sprintf("sliccd: %d: %s", e.StatusCode, e.Message)
}

// Simulation mirrors the service's simulation resource.
type Simulation struct {
	ID     string        `json:"id"`
	Status string        `json:"status"`
	Config slicc.Config  `json:"config"`
	Result *slicc.Result `json:"result,omitempty"`
	Error  string        `json:"error,omitempty"`
	// NotModified reports that the service answered this poll with 304
	// (the client sent the last seen ETag and the resource is unchanged);
	// the fields above are replayed from the previous response. Completed
	// resources are immutable, so a NotModified poll is free for the
	// server and near-free on the wire.
	NotModified bool `json:"-"`
}

// Sweep mirrors the service's sweep resource, including the partial
// results a running or failed sweep exposes.
type Sweep struct {
	ID        string                  `json:"id"`
	Status    string                  `json:"status"`
	Spec      slicc.SweepSpec         `json:"spec"`
	Completed int                     `json:"completed"`
	Total     int                     `json:"total"`
	Partial   []slicc.SweepCellResult `json:"partial,omitempty"`
	Result    *slicc.SweepResult      `json:"result,omitempty"`
	Error     string                  `json:"error,omitempty"`
	// NotModified: see Simulation.NotModified.
	NotModified bool `json:"-"`
}

// StoreStats mirrors the store block of GET /v1/stats. Evictions are
// split per tier: disk entries evicted under -store-max-mb vs
// memory-tier entries evicted under -store-mem-mb.
type StoreStats struct {
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

// ResponseCacheStats mirrors the response_cache block of GET /v1/stats:
// the service's response-byte cache and conditional-GET counters.
type ResponseCacheStats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	NotModified uint64 `json:"not_modified"`
}

// QueueStats mirrors the queue block of GET /v1/stats on distributed
// control planes (sliccd -distributed): the durable job queue's current
// depth by state, the dead-letter queue, and lifetime counters.
type QueueStats struct {
	Pending     int   `json:"pending"`
	Leased      int   `json:"leased"`
	Dead        int   `json:"dead"`
	Enqueued    int64 `json:"enqueued"`
	Leases      int64 `json:"leases"`
	Heartbeats  int64 `json:"heartbeats"`
	Expirations int64 `json:"expirations"`
	Completions int64 `json:"completions"`
	Failures    int64 `json:"failures"`
}

// Stats mirrors GET /v1/stats.
type Stats struct {
	Engine slicc.EngineStats `json:"engine"`
	// Store is nil when the service runs without a persistent store.
	Store         *StoreStats        `json:"store,omitempty"`
	ResponseCache ResponseCacheStats `json:"response_cache"`
	// Queue is nil when the service is not a distributed control plane.
	Queue       *QueueStats `json:"queue,omitempty"`
	Simulations int         `json:"simulations"`
	// Sweeps counts tracked sweeps; SweepsRunning the running subset,
	// whose unfinished cells are SweepCellsPending (split further into
	// queued vs leased by the Queue block in distributed mode).
	Sweeps            int     `json:"sweeps"`
	SweepsRunning     int     `json:"sweeps_running"`
	SweepCellsPending int     `json:"sweep_cells_pending"`
	UptimeSeconds     float64 `json:"uptime_seconds"`
}

// Client talks to one sliccd instance. The zero value is not usable; call
// New.
type Client struct {
	baseURL string
	http    *http.Client
	// reconnect policy for streams (see Option docs for defaults).
	backoffMin   time.Duration
	backoffMax   time.Duration
	retryBudget  time.Duration
	watchRetries int

	// etags caches, per GET path, the last response that carried an ETag
	// (the service only sets one on completed, immutable resources) so
	// the next poll sends If-None-Match and a 304 replays the cached
	// body without the server marshaling or sending it again.
	mu    sync.Mutex
	etags map[string]*etagState
}

// etagState is one cached conditional-GET validator + body.
type etagState struct {
	etag string
	body []byte
}

// etagCacheCap bounds the client's conditional-GET cache (entries are
// full response bodies; a polling client touches few distinct paths).
const etagCacheCap = 64

// cachedETag returns the cached state for a GET path, if any.
func (c *Client) cachedETag(path string) *etagState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.etags[path]
}

// storeETag records a validator + body for path, evicting an arbitrary
// entry past the cap.
func (c *Client) storeETag(path, etag string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.etags == nil {
		c.etags = make(map[string]*etagState)
	}
	if _, ok := c.etags[path]; !ok && len(c.etags) >= etagCacheCap {
		for k := range c.etags {
			delete(c.etags, k)
			break
		}
	}
	c.etags[path] = &etagState{etag: etag, body: body}
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles). Streams hold connections open indefinitely,
// so the client must not set a global Timeout; use per-request contexts.
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// WithBackoff sets the stream reconnect backoff range (first retry after
// min, doubling to at most max). Defaults: 50ms..2s.
func WithBackoff(min, max time.Duration) Option {
	return func(c *Client) { c.backoffMin, c.backoffMax = min, max }
}

// WithRetryBudget bounds how long a stream keeps retrying consecutive
// connection failures before giving up (the budget resets on every
// successful connect). Default 30s — enough to ride out a service
// restart. The context can always end retries sooner.
func WithRetryBudget(d time.Duration) Option {
	return func(c *Client) { c.retryBudget = d }
}

// New returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		baseURL:      strings.TrimRight(baseURL, "/"),
		http:         &http.Client{},
		backoffMin:   50 * time.Millisecond,
		backoffMax:   2 * time.Second,
		retryBudget:  30 * time.Second,
		watchRetries: 3,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do performs one JSON round trip. body == nil means no request body; out
// == nil discards the response body. GETs with an out participate in
// conditional requests: the last seen ETag for the path (if any) rides
// out as If-None-Match, a 304 decodes the cached body into out and
// reports notModified, and a 200 carrying an ETag refreshes the cache.
func (c *Client) do(ctx context.Context, method, path string, body, out any) (notModified bool, err error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return false, fmt.Errorf("sdk: encoding request: %w", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, rd)
	if err != nil {
		return false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Request-ID", requestID(ctx))
	// Capture the cached state before sending so a concurrent cache
	// eviction cannot strand a 304 without its body.
	var cached *etagState
	if method == http.MethodGet && out != nil {
		if cached = c.cachedETag(path); cached != nil {
			req.Header.Set("If-None-Match", cached.etag)
		}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified && cached != nil {
		io.Copy(io.Discard, resp.Body)
		return true, json.Unmarshal(cached.body, out)
	}
	if resp.StatusCode >= 300 {
		return false, decodeAPIError(resp)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return false, err
	}
	if cached != nil || resp.Header.Get("ETag") != "" {
		// Buffer so the body can back future conditional requests.
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return false, err
		}
		if etag := resp.Header.Get("ETag"); etag != "" {
			c.storeETag(path, etag, b)
		}
		return false, json.Unmarshal(b, out)
	}
	return false, json.NewDecoder(resp.Body).Decode(out)
}

// decodeAPIError turns a non-2xx response into an *APIError, preserving
// the service's message and request ID when the body is its JSON error
// envelope.
func decodeAPIError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	msg := strings.TrimSpace(string(b))
	reqID := resp.Header.Get("X-Request-ID")
	if json.Unmarshal(b, &env) == nil && env.Error != "" {
		msg = env.Error
		if env.RequestID != "" {
			reqID = env.RequestID
		}
	}
	return &APIError{StatusCode: resp.StatusCode, Message: msg, RequestID: reqID}
}

// waitQuery appends ?wait=1 when wait is set.
func waitQuery(wait bool) string {
	if wait {
		return "?wait=1"
	}
	return ""
}

// SubmitSimulation submits a configuration. With wait, the call blocks
// (up to the service's timeout) for the result; without, it returns the
// accepted, possibly still-running resource.
func (c *Client) SubmitSimulation(ctx context.Context, cfg slicc.Config, wait bool) (*Simulation, error) {
	var out Simulation
	if _, err := c.do(ctx, http.MethodPost, "/v1/simulations"+waitQuery(wait), cfg, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Simulation fetches a simulation by id, optionally waiting for it to
// finish.
func (c *Client) Simulation(ctx context.Context, id string, wait bool) (*Simulation, error) {
	var out Simulation
	nm, err := c.do(ctx, http.MethodGet, "/v1/simulations/"+id+waitQuery(wait), nil, &out)
	if err != nil {
		return nil, err
	}
	out.NotModified = nm
	return &out, nil
}

// SubmitSweep submits a sweep spec. Identical specs coalesce onto one
// run (ids are content keys), and after a service restart the same POST
// is the resume: finished cells replay from the store.
func (c *Client) SubmitSweep(ctx context.Context, spec slicc.SweepSpec, wait bool) (*Sweep, error) {
	var out Sweep
	if _, err := c.do(ctx, http.MethodPost, "/v1/sweeps"+waitQuery(wait), spec, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Sweep fetches a sweep by id — status, completed/total progress and
// partial cells while running — optionally waiting for completion. A 404
// wraps ErrSweepGone.
func (c *Client) Sweep(ctx context.Context, id string, wait bool) (*Sweep, error) {
	var out Sweep
	nm, err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id+waitQuery(wait), nil, &out)
	if err != nil {
		return nil, sweepGone(err)
	}
	out.NotModified = nm
	return &out, nil
}

// ResumeSweep retries a failed sweep in place; for running or done sweeps
// it is a no-op returning current state. A 404 wraps ErrSweepGone —
// re-POST the spec instead.
func (c *Client) ResumeSweep(ctx context.Context, id string, wait bool) (*Sweep, error) {
	var out Sweep
	if _, err := c.do(ctx, http.MethodPost, "/v1/sweeps/"+id+"/resume"+waitQuery(wait), nil, &out); err != nil {
		return nil, sweepGone(err)
	}
	return &out, nil
}

// Stats fetches engine counters and service bookkeeping.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var out Stats
	if _, err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// sweepGone maps a 404 APIError onto ErrSweepGone (wrapped, so both
// errors.Is(err, ErrSweepGone) and errors.As(&APIError) work).
func sweepGone(err error) error {
	var ae *APIError
	if errors.As(err, &ae) && ae.StatusCode == http.StatusNotFound {
		return fmt.Errorf("%w: %w", ErrSweepGone, ae)
	}
	return err
}
