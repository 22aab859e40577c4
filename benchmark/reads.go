package main

// warm_reads: no simulation in the timed region. Phase A restarts the
// service over a warm store again and again and resubmits the same sweep —
// every cell a store hit — which is the store Get, the decoded-result
// memo, sweep assembly and SSE replay end to end. Phase B is a closed loop
// of keep-alive clients polling one warm service with a fixed, seeded mix
// of reads: the response cache, ETag/304, routing and per-request
// telemetry do all the work. Closed, because sliccd's callers are SDK
// pollers and watchers that wait for a reply.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"slicc"
)

// readTargets is what phase B's clients poll: one done sweep and a set of
// completed simulations, with the reference bytes every 200 must equal.
type readTargets struct {
	sweepPath string
	sweepETag string
	sweepBody []byte
	simPaths  []string
	simPosts  [][]byte // the config JSON that resubmits each simulation
	simBodies [][]byte
}

// prepareReads brings a fresh service over the warm store to the state
// phase B polls: the sweep resubmitted (a store replay), every simulation
// submitted and complete, and every response cache filled by a first GET.
func prepareReads(ctx context.Context, g *rig, spec slicc.SweepSpec, sims []tinyCell) (*readTargets, error) {
	sw, err := g.client.SubmitSweep(ctx, spec, true)
	if err != nil {
		return nil, err
	}
	if sw.Status != "done" {
		return nil, fmt.Errorf("warm sweep is %s after a waited submit", sw.Status)
	}
	t := &readTargets{sweepPath: "/v1/sweeps/" + sw.ID}
	status, body, hdr, err := g.get(ctx, t.sweepPath, "")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d, %v", t.sweepPath, status, err)
	}
	t.sweepBody, t.sweepETag = body, hdr.Get("ETag")
	if t.sweepETag == "" {
		return nil, fmt.Errorf("GET %s: a done sweep carries no ETag", t.sweepPath)
	}
	for _, c := range sims {
		cfg, err := c.config()
		if err != nil {
			return nil, err
		}
		sim, err := g.client.SubmitSimulation(ctx, cfg, true)
		if err != nil {
			return nil, err
		}
		if sim.Status != "done" {
			return nil, fmt.Errorf("simulation %s is %s after a waited submit", sim.ID[:12], sim.Status)
		}
		post, err := json.Marshal(cfg)
		if err != nil {
			return nil, err
		}
		path := "/v1/simulations/" + sim.ID
		status, body, _, err := g.get(ctx, path, "")
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d, %v", path, status, err)
		}
		t.simPaths = append(t.simPaths, path)
		t.simPosts = append(t.simPosts, post)
		t.simBodies = append(t.simBodies, body)
	}
	return t, nil
}

// readStats is what one closed-loop client measured.
type readStats struct {
	latencies []float64 // seconds, one per completed request
	byKind    [numReadKinds][]float64
	failed    int
	firstErr  error
}

// readClient issues requests from its schedule, one at a time over one
// keep-alive connection, until the deadline.
func readClient(ctx context.Context, g *rig, t *readTargets, schedule []readOp, deadline time.Time) *readStats {
	st := &readStats{}
	var buf bytes.Buffer
	fail := func(err error) {
		st.failed++
		if st.firstErr == nil {
			st.firstErr = err
		}
	}
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		op := schedule[i%len(schedule)]
		method, path, wantStatus := http.MethodGet, "", http.StatusOK
		var post, want []byte
		etag := ""
		switch op.kind {
		case kindSweep:
			path, want = t.sweepPath, t.sweepBody
		case kindSweep304:
			path, etag, wantStatus = t.sweepPath, t.sweepETag, http.StatusNotModified
		case kindSimulation:
			path, want = t.simPaths[op.sim], t.simBodies[op.sim]
		case kindResubmit:
			method, path = http.MethodPost, "/v1/simulations?wait=1"
			post, want = t.simPosts[op.sim], t.simBodies[op.sim]
		case kindStats:
			path = "/v1/stats"
		case kindMetrics:
			path = "/metrics"
		}
		var body io.Reader
		if post != nil {
			body = bytes.NewReader(post)
		}
		start := time.Now()
		req, err := http.NewRequestWithContext(ctx, method, g.url+path, body)
		if err != nil {
			fail(err)
			continue
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		if post != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := g.httpc.Do(req)
		if err != nil {
			fail(err)
			continue
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		lat := time.Since(start).Seconds()
		st.latencies = append(st.latencies, lat)
		st.byKind[op.kind] = append(st.byKind[op.kind], lat)
		switch {
		case err != nil:
			fail(err)
		case resp.StatusCode != wantStatus:
			fail(fmt.Errorf("%s %s: status %d, want %d", method, path, resp.StatusCode, wantStatus))
		case want != nil && !bytes.Equal(buf.Bytes(), want):
			fail(fmt.Errorf("%s %s: body differs from the reference (%d vs %d bytes)", method, path, buf.Len(), len(want)))
		case want == nil && wantStatus == http.StatusOK && buf.Len() == 0:
			fail(fmt.Errorf("%s %s: empty body", method, path))
		}
	}
	return st
}

// readsOutcome is one pass of warm_reads: phase A's resubmit times and
// phase B's request latencies.
type readsOutcome struct {
	resubmits []float64 // seconds per restart-warm replay
	prep      float64   // seconds to boot and prepare the phase-B service
	latencies []float64
	byKind    [numReadKinds][]float64
	seconds   float64 // phase B's measured length
	requests  int
	clients   int
	stats     slicc.EngineStats // phase-A engines' counters, summed
}

func (o *readsOutcome) rps() float64 { return float64(o.requests) / o.seconds }

// warmPass runs phase A (passes restart-warm replays) and then phase B, a
// closed loop that lasts until the pass has measured for seconds in all
// (and at least one second), against the warm store in dir.
func warmPass(ctx context.Context, r *run, rec *recorder, dir string, spec slicc.SweepSpec, cells int, refJSON []byte, passes int, seconds float64) (*readsOutcome, error) {
	out := &readsOutcome{clients: runtime.GOMAXPROCS(0)}
	r.setupDone()
	passStart := time.Now()

	for i := 0; i < passes; i++ {
		g, err := newRig(rigOptions{storeDir: dir, rec: rec})
		if err != nil {
			return nil, err
		}
		t := time.Now()
		res, err := g.client.WatchSweep(ctx, spec, nil)
		wall := time.Since(t).Seconds()
		st := g.eng.Stats()
		cerr := g.close()
		r.attempted++
		got, merr := json.Marshal(res)
		ok := r.check("restart-warm replay", err == nil && merr == nil && cerr == nil, "watch %v, marshal %v, close %v", err, merr, cerr)
		ok = ok && r.check("replay equals the warming run's result", bytes.Equal(got, refJSON), "%d bytes replayed, %d reference", len(got), len(refJSON))
		ok = ok && r.check("replay simulates nothing", st.SimsExecuted == 0 && st.InstructionsSimulated == 0 && st.StoreHits == cells,
			"%d executed, %d instructions, %d store hits of %d cells", st.SimsExecuted, st.InstructionsSimulated, st.StoreHits, cells)
		if !ok {
			r.failed++
			continue
		}
		out.resubmits = append(out.resubmits, wall)
		out.stats.SimsRequested += st.SimsRequested
		out.stats.StoreHits += st.StoreHits
		out.stats.DedupHits += st.DedupHits
	}

	t := time.Now()
	g, err := newRig(rigOptions{storeDir: dir, rec: rec})
	if err != nil {
		return nil, err
	}
	defer g.close()
	targets, err := prepareReads(ctx, g, spec, tinyCells(r.seed, r.size.tinySeeds, r.size.simConfigs))
	if err != nil {
		return nil, err
	}
	out.prep = time.Since(t).Seconds()

	results := make([]*readStats, out.clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := passStart.Add(time.Duration(seconds * float64(time.Second)))
	if floor := start.Add(time.Second); deadline.Before(floor) {
		deadline = floor
	}
	for c := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[c] = readClient(ctx, g, targets, readSchedule(r.seed, c, len(targets.simPaths)), deadline)
		}()
	}
	wg.Wait()
	out.seconds = time.Since(start).Seconds()

	failed := 0
	var firstErr error
	for _, st := range results {
		out.latencies = append(out.latencies, st.latencies...)
		for k := range st.byKind {
			out.byKind[k] = append(out.byKind[k], st.byKind[k]...)
		}
		failed += st.failed
		if firstErr == nil {
			firstErr = st.firstErr
		}
	}
	out.requests = len(out.latencies) + failed
	r.attempted += out.requests
	r.failed += failed
	r.check("every read answered as expected", failed == 0, "%d of %d requests failed; first: %v", failed, out.requests, firstErr)
	st := g.eng.Stats()
	r.check("reads simulate nothing", st.SimsExecuted == 0 && st.InstructionsSimulated == 0,
		"%d executed, %d instructions in the polled service", st.SimsExecuted, st.InstructionsSimulated)
	return out, nil
}

// warmStore is most of warm_reads' set-up: it runs spec once, cold, into a
// store at dir and returns the result as JSON. The run is a simulation —
// counted in setup_s, never timed as reads — and it happens in a child
// process (this binary with --warm-store), so that the memory it needs is
// not in this process's peak: the timed region simulates nothing, and
// process.peak_rss_mb is to say what the read path holds.
func warmStore(ctx context.Context, dir string, spec slicc.SweepSpec) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "--warm-store", dir)
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("warming the store: %w", err)
	}
	return out, nil
}

// warmStoreChild is the child's side of warmStore.
func warmStoreChild(dir string, in io.Reader, out io.Writer) error {
	var spec slicc.SweepSpec
	if err := json.NewDecoder(in).Decode(&spec); err != nil {
		return fmt.Errorf("sweep spec on stdin: %w", err)
	}
	eng, err := slicc.NewEngine(slicc.EngineOptions{Workers: runtime.GOMAXPROCS(0), StoreDir: dir})
	if err != nil {
		return err
	}
	res, err := eng.SweepStream(context.Background(), spec, nil)
	if err := errors.Join(err, eng.Close()); err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = out.Write(b)
	return err
}

func runWarmReads(ctx context.Context, r *run) error {
	spec, err := tinySpec(r.seed, r.size.tinySeeds)
	if err != nil {
		return err
	}
	cells := len(tinyWorkloads) * len(tinyPolicies) * r.size.tinySeeds
	tmp, err := os.MkdirTemp("", "slicc-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	dir := filepath.Join(tmp, "store")

	refJSON, err := warmStore(ctx, dir, spec)
	if err != nil {
		return err
	}
	var ref *slicc.SweepResult
	if err := json.Unmarshal(refJSON, &ref); err != nil {
		return fmt.Errorf("the warming run's result: %w", err)
	}

	var out *readsOutcome
	if r.traced() {
		// A short pass to warm the process, the same pass traced, and a
		// bare pass again: the last two differ by the tracing overhead.
		short := func(rec *recorder) (*readsOutcome, error) {
			return warmPass(ctx, r, rec, dir, spec, cells, refJSON, 3, min(r.seconds, 4))
		}
		if _, err := short(nil); err != nil {
			return err
		}
		out, err = tracedPass(r, "warm_reads pass", func() (*readsOutcome, int, error) {
			o, err := short(r.rec)
			if err != nil {
				return nil, 0, err
			}
			return o, o.requests, nil
		})
		if err != nil {
			return err
		}
		bare, err := short(nil)
		if err != nil {
			return err
		}
		if bare.requests > 0 && out.requests > 0 {
			r.layer.set("trace_overhead_share", bare.rps()/out.rps()-1, 1)
		}
		r.layer.set("server.read_p50_ms", percentile(bare.latencies, 50)*1e3, len(bare.latencies))
		r.layer.set("server.read_p99_ms", percentile(bare.latencies, 99)*1e3, len(bare.latencies))
	} else {
		out, err = warmPass(ctx, r, nil, dir, spec, cells, refJSON, r.size.warmPasses, r.seconds)
		if err != nil {
			return err
		}
	}

	// Phase B's service is prepared after phase A, untimed: set-up too.
	r.e2e.set("setup_s", r.setup+out.prep, 1)
	if len(out.resubmits) > 0 {
		r.e2e.set("wall_s", median(out.resubmits), len(out.resubmits))
	}
	if len(out.latencies) > 0 {
		r.e2e.set("ops_per_s", out.rps(), len(out.latencies))
	}
	reportReads(r, out)

	if r.traced() {
		if err := r.notePeakRSS(); err != nil {
			return err
		}
		return readsLayers(ctx, r, out, dir, spec, ref)
	}
	return nil
}

// reportReads prints phase B's latency by request kind, each with the
// highest percentile its sample count supports.
func reportReads(r *run, o *readsOutcome) {
	fmt.Fprintf(r.out, "phase A: %d restart-warm replays; phase B: %d requests in %.2f s from %d closed-loop clients (connections)\n",
		len(o.resubmits), o.requests, o.seconds, o.clients)
	line := func(name string, xs []float64) {
		if len(xs) == 0 {
			return
		}
		fmt.Fprintf(r.out, "  %-10s n=%-7d p50 %.3f ms", name, len(xs), percentile(xs, 50)*1e3)
		if p, ok := tailPercentile(len(xs)); ok {
			fmt.Fprintf(r.out, "  p%g %.3f ms", p, percentile(xs, p)*1e3)
		}
		fmt.Fprintln(r.out)
	}
	line("all", o.latencies)
	for k, xs := range o.byKind {
		line(readKindNames[k], xs)
	}
}

// readsLayers fills warm_reads' per-layer metrics: the counts of the
// traced pass, then the same replay and probes the sweep workloads use,
// over the warm store.
func readsLayers(ctx context.Context, r *run, o *readsOutcome, dir string, spec slicc.SweepSpec, ref *slicc.SweepResult) error {
	r.layer.set("runner.store_hits", float64(o.stats.StoreHits), 0)
	r.layer.set("runner.dedup_hits", float64(o.stats.DedupHits), 0)
	r.layer.timing("server.submit_ms", r.rec.seconds(r.passRoot, "server POST /v1/sweeps"), 1e3)

	sample, err := tinyReplayCells(tinyCells(r.seed, r.size.tinySeeds, r.size.replayTiny))
	if err != nil {
		return err
	}
	rr, err := replayLayers(r, sample, dir)
	if err != nil {
		return err
	}
	if err := storeProbes(ctx, r, dir, sample, rr.keys); err != nil {
		return err
	}
	if err := sweepProbes(ctx, r, dir, spec, ref); err != nil {
		return err
	}
	return serverProbes(ctx, r, dir, spec)
}
