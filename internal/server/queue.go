package server

// Control-plane queue API: the HTTP face of internal/queue for the
// distributed worker fleet (cmd/sliccworker). Mounted only when the
// server was built with Options.Queue (sliccd -distributed):
//
//	POST /v1/queue/lease         lease the oldest eligible job
//	                             (long-polls up to wait_seconds, capped);
//	                             200 {"job": null} when nothing is
//	                             eligible.
//	POST /v1/queue/{id}/heartbeat renew a lease (404 unknown job, 409
//	                             lease not held by the caller).
//	POST /v1/queue/{id}/complete ack a finished job whose result is in
//	                             the shared store.
//	POST /v1/queue/{id}/fail     record a failed attempt; the entry
//	                             retries after backoff or dead-letters.
//	GET  /v1/queue/dead          inspect the dead-letter queue.
//
// Wire types live in internal/queue (api.go) so server and worker cannot
// drift. Every protocol rejection is benign by design: the store absorbs
// duplicate executions, so a worker that loses a race just moves on.

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"slicc/internal/queue"
	"slicc/internal/telemetry"
)

// maxLeaseWait caps a lease request's long poll so a worker's poll never
// outlives proxies' idle windows; workers simply re-poll.
const maxLeaseWait = 30 * time.Second

// queueRoutes mounts the queue API (caller verified Options.Queue).
func (s *Server) queueRoutes(add func(pattern, route string, h http.HandlerFunc)) {
	add("POST /v1/queue/lease", "/v1/queue/lease", s.handleQueueLease)
	add("POST /v1/queue/{id}/heartbeat", "/v1/queue/{id}/heartbeat", s.handleQueueHeartbeat)
	add("POST /v1/queue/{id}/complete", "/v1/queue/{id}/complete", s.handleQueueComplete)
	add("POST /v1/queue/{id}/fail", "/v1/queue/{id}/fail", s.handleQueueFail)
	add("GET /v1/queue/dead", "/v1/queue/dead", s.handleQueueDead)
}

// writeQueueError maps the queue's sentinel errors onto the protocol's
// status codes: 404 unknown job, 409 lease conflict, 503 closed queue.
func writeQueueError(w http.ResponseWriter, r *http.Request, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, queue.ErrUnknown):
		code = http.StatusNotFound
	case errors.Is(err, queue.ErrNotHolder):
		code = http.StatusConflict
	case errors.Is(err, queue.ErrClosed):
		code = http.StatusServiceUnavailable
	}
	writeError(w, r, code, err.Error())
}

// decodeBody decodes a small strict-JSON request body into v. An empty
// body decodes as the zero value (every queue request struct has usable
// defaults).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, r, http.StatusBadRequest, "decoding request: "+err.Error())
		return false
	}
	return true
}

func (s *Server) handleQueueLease(w http.ResponseWriter, r *http.Request) {
	var req queue.LeaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	wait := time.Duration(req.WaitSeconds) * time.Second
	if wait < 0 {
		wait = 0
	}
	if wait > maxLeaseWait {
		wait = maxLeaseWait
	}
	job, err := s.opts.Queue.Lease(r.Context(), req.Worker, wait)
	if err != nil {
		writeQueueError(w, r, err)
		return
	}
	if job != nil {
		s.logger.Debug("queue lease",
			"id", job.ID, "holder", job.Holder, "attempts", job.Attempts,
			"request_id", telemetry.RequestID(r.Context()))
	}
	writeJSON(w, http.StatusOK, queue.LeaseResponse{Job: job})
}

func (s *Server) handleQueueHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req queue.HeartbeatRequest
	if !decodeBody(w, r, &req) {
		return
	}
	expires, err := s.opts.Queue.Heartbeat(r.PathValue("id"), req.Holder)
	if err != nil {
		writeQueueError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, queue.HeartbeatResponse{LeaseExpires: expires})
}

func (s *Server) handleQueueComplete(w http.ResponseWriter, r *http.Request) {
	var req queue.CompleteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	id := r.PathValue("id")
	if err := s.opts.Queue.Complete(id, req.Holder); err != nil {
		writeQueueError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "completed"})
}

func (s *Server) handleQueueFail(w http.ResponseWriter, r *http.Request) {
	var req queue.FailRequest
	if !decodeBody(w, r, &req) {
		return
	}
	id := r.PathValue("id")
	attempts, dead, err := s.opts.Queue.Fail(id, req.Holder, req.Error)
	if err != nil {
		writeQueueError(w, r, err)
		return
	}
	if dead {
		s.logger.Warn("queue job dead-lettered", "id", id, "attempts", attempts,
			"error", req.Error, "request_id", telemetry.RequestID(r.Context()))
	}
	writeJSON(w, http.StatusOK, queue.FailResponse{Attempts: attempts, Dead: dead})
}

func (s *Server) handleQueueDead(w http.ResponseWriter, r *http.Request) {
	dead := s.opts.Queue.Dead()
	if dead == nil {
		dead = []queue.DeadJob{} // an empty DLQ is [], never null
	}
	writeJSON(w, http.StatusOK, queue.DeadResponse{Dead: dead})
}

// queueStatsBody is queue.Stats with /v1/stats' JSON names (converted, so
// the two cannot drift); the slicc_queue_* families below project the same
// snapshot.
type queueStatsBody struct {
	// Pending entries are enqueued but unleased (including retry
	// backoff); Leased entries are in flight on a worker; Dead is the
	// DLQ. Pending+Leased is the live depth a sweep is waiting on.
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Dead    int `json:"dead"`
	// Lifetime counters since the queue opened.
	Enqueued    int64 `json:"enqueued"`
	Leases      int64 `json:"leases"`
	Heartbeats  int64 `json:"heartbeats"`
	Expirations int64 `json:"expirations"`
	Completions int64 `json:"completions"`
	Failures    int64 `json:"failures"`
}

const queueDepthHelp = "Queue entries by state: pending (enqueued, unleased) or leased (in flight on a worker)."

// queueFamilies are registered on distributed control planes
// (Options.Queue); see registerMetrics.
var queueFamilies = []sampled{
	gauge("slicc_queue_depth", queueDepthHelp,
		func(s snapshot) float64 { return float64(s.queue.Pending) }, telemetry.L("state", "pending")),
	gauge("slicc_queue_depth", queueDepthHelp,
		func(s snapshot) float64 { return float64(s.queue.Leased) }, telemetry.L("state", "leased")),
	gauge("slicc_queue_dead", "Dead-letter queue entries (jobs that exhausted their retry budget).",
		func(s snapshot) float64 { return float64(s.queue.Dead) }),
	counter("slicc_queue_enqueued_total", "Jobs enqueued onto the durable queue.",
		func(s snapshot) float64 { return float64(s.queue.Enqueued) }),
	counter("slicc_queue_leases_total", "Leases issued to workers.",
		func(s snapshot) float64 { return float64(s.queue.Leases) }),
	counter("slicc_queue_heartbeats_total", "Lease renewals accepted.",
		func(s snapshot) float64 { return float64(s.queue.Heartbeats) }),
	counter("slicc_queue_expirations_total", "Leases that expired unacknowledged (crashed or stalled workers).",
		func(s snapshot) float64 { return float64(s.queue.Expirations) }),
	counter("slicc_queue_completions_total", "Jobs completed by workers.",
		func(s snapshot) float64 { return float64(s.queue.Completions) }),
	counter("slicc_queue_failures_total", "Failed job attempts recorded (explicit worker failures and lease expirations).",
		func(s snapshot) float64 { return float64(s.queue.Failures) }),
}
