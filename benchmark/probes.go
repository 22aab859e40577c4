package main

// Layer probes: timings taken around calls into each layer's public
// functions, one layer at a time, after the traced pass. Each probe
// repeats a fixed number of operations and reports the median with its
// sample count. Counts come from the layers' own Stats snapshots.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"slicc"
	"slicc/internal/queue"
	"slicc/internal/runner"
	"slicc/internal/store"
	"slicc/internal/sweep"
)

// serviceLayers fills the per-layer metrics of a service workload from its
// traced cold pass and the probes that follow it over the pass's store.
func serviceLayers(ctx context.Context, r *run, p *sweepPass, spec slicc.SweepSpec, cells int, distributed bool) error {
	root := r.passRoot
	st := p.stats
	var instr, migrations uint64
	for _, c := range p.res.Cells {
		instr += c.Instructions
		migrations += c.Migrations
	}
	// Simulated instructions: the serving engine's own count when it ran
	// the cells, the sum over the delivered cells when the fleet did.
	if st.SimsRemote == 0 {
		r.check("engine instruction count equals the cells' sum", st.InstructionsSimulated == instr,
			"engine %d, cells %d", st.InstructionsSimulated, instr)
	}
	r.layer.set("sim.instructions", float64(instr), 0)
	r.layer.set("slicc.migrations", float64(migrations), 0)
	r.layer.set("runner.jobs_executed", float64(st.SimsExecuted), 0)
	r.layer.set("runner.dedup_hits", float64(st.DedupHits), 0)
	r.layer.set("runner.store_hits", float64(st.StoreHits), 0)
	r.layer.set("runner.jobs_remote", float64(st.SimsRemote), 0)
	r.layer.set("workload.built", float64(st.WorkloadsBuilt), 0)
	r.layer.timing("server.submit_ms", r.rec.seconds(root, "server POST /v1/sweeps"), 1e3)

	sample, err := tinyReplayCells(tinyCells(r.seed, r.size.tinySeeds, r.size.replayTiny))
	if err != nil {
		return err
	}
	rr, err := replayLayers(r, sample, p.storeDir())
	if err != nil {
		return err
	}
	var runSeconds float64
	for _, s := range rr.hops["sim.run"] {
		runSeconds += s
	}
	r.layer.set("sim.run_minstr_per_s.tiny", float64(rr.instructions)/runSeconds/1e6, len(rr.hops["sim.run"]))

	if distributed {
		waits := r.rec.seconds(root, "queue.execute")
		r.layer.set("queue.execute_wait_p50_ms", percentile(waits, 50)*1e3, len(waits))
		r.layer.set("queue.execute_wait_p99_ms", percentile(waits, 99)*1e3, len(waits))
		q := p.queue
		r.layer.set("queue.enqueued", float64(q.Enqueued), 0)
		r.layer.set("queue.leases", float64(q.Leases), 0)
		r.layer.set("queue.expirations", float64(q.Expirations), 0)
		r.layer.set("queue.failures", float64(q.Failures), 0)
		r.layer.set("queue.dead", float64(q.Dead), 0)
		r.layer.set("worker.jobs_done", float64(p.workersDone), 0)
		r.layer.set("worker.jobs_failed", float64(p.workersFailed), 0)
		// The headline: what a cell costs through the fleet beyond what it
		// costs a worker that simply runs it.
		r.layer.set("worker.overhead_ms_per_cell", (fleetWorkers*p.wall/float64(cells)-rr.meanCellSeconds())*1e3, 1)
		if err := queueProbes(ctx, r, sample); err != nil {
			return err
		}
	}
	if err := storeProbes(ctx, r, p.storeDir(), sample, rr.keys); err != nil {
		return err
	}
	if err := sweepProbes(ctx, r, p.storeDir(), spec, p.res); err != nil {
		return err
	}
	return serverProbes(ctx, r, p.storeDir(), spec)
}

// replayLayers replays the sampled cells hop by hop, records what that
// yields, and checks the replay is faithful: each replayed cell's job key
// must be a key the service stored a result under.
func replayLayers(r *run, sample []replayCell, passStore string) (*replayResult, error) {
	root := r.rec.beginPass("replay")
	rr, err := replay(r.rec, sample)
	r.rec.endPass(root)
	if err != nil {
		return nil, err
	}
	setReplayMetrics(r.layer, rr)
	r.budget = rr.budget()

	st, err := store.Open(passStore, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	missing := 0
	for _, k := range rr.keys {
		if !st.Contains(k) {
			missing++
		}
	}
	r.check("replayed cells are cells the service ran", missing == 0, "%d of %d replayed job keys absent from the pass's store", missing, len(rr.keys))
	return rr, nil
}

// workerCounts sums the fleet's outcome counters. A worker bumps its
// counter after its complete call returns, which can trail the sweep's end
// by a round trip, so wait briefly for want completions.
func (g *rig) workerCounts(want int64) (done, failed int64) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		done, failed = 0, 0
		for _, w := range g.workers {
			s := w.Stats()
			done += s.Completed
			failed += s.Failed
		}
		if done+failed >= want || time.Now().After(deadline) {
			return done, failed
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// storeProbes times the store and the runner's memo over it: opening a
// warm directory, Put, Get from disk and from the memory tier, and a pool
// run whose every job is a store hit. keys are present in dir.
func storeProbes(ctx context.Context, r *run, dir string, sample []replayCell, keys []string) error {
	n := r.size.probeIters
	var opens []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		st, err := store.Open(dir, store.Options{})
		opens = append(opens, time.Since(t).Seconds())
		if err != nil {
			return err
		}
		st.Close()
	}
	r.layer.timing("store.open_ms", opens, 1e3)

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	stats, err := st.Stats()
	if err != nil {
		return err
	}
	r.layer.set("store.entries", float64(stats.Entries), 0)
	payload, ok := st.Get(keys[0])
	if !ok {
		return fmt.Errorf("store probe: key %s not in the pass's store", keys[0][:12])
	}

	// Put: a real result payload under fresh keys, into a scratch store.
	scratch, err := os.MkdirTemp("", "slicc-bench-put-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	sst, err := store.Open(scratch, store.Options{})
	if err != nil {
		return err
	}
	defer sst.Close()
	var puts []float64
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("probe-%d", i)
		t := time.Now()
		err := sst.Put(key, payload)
		puts = append(puts, time.Since(t).Seconds())
		if err != nil {
			return err
		}
	}
	r.layer.timing("store.put_us", puts, 1e6)

	// Memory tier: off by default in sliccd, so timed on a store of its own.
	mst, err := store.Open(dir, store.Options{MemBytes: 64 << 20})
	if err != nil {
		return err
	}
	defer mst.Close()
	var memHits []float64
	for i := 0; i < n; i++ {
		k := keys[i%len(keys)]
		mst.Get(k) // first read fills the tier
		t := time.Now()
		_, ok := mst.Get(k)
		memHits = append(memHits, time.Since(t).Seconds())
		if !ok {
			return fmt.Errorf("store probe: memory-tier miss on %s", k[:12])
		}
	}
	r.layer.timing("store.get_hit_mem_us", memHits, 1e6)

	memo := runner.NewStoreMemo(st)
	var misses []float64
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("absent-%d", i)
		t := time.Now()
		memo.Get(key)
		misses = append(misses, time.Since(t).Seconds())
	}
	r.layer.timing("runner.memo_get_miss_us", misses, 1e6)

	// A pool whose every job is a store hit: claim, memo Get, gather.
	jobs := make([]runner.Job, len(sample))
	for i, c := range sample {
		jobs[i] = c.job()
	}
	var warm []float64
	for i := 0; i < max(3, n/20); i++ {
		pool := runner.New(runner.Options{Workers: runtime.GOMAXPROCS(0), Memo: runner.NewStoreMemo(st)})
		t := time.Now()
		_, err := pool.Run(ctx, jobs)
		warm = append(warm, time.Since(t).Seconds()/float64(len(jobs)))
		if err != nil {
			return err
		}
		if ps := pool.Stats(); ps.JobsExecuted != 0 {
			return fmt.Errorf("store probe: a warm pool run executed %d jobs", ps.JobsExecuted)
		}
		pool.Close()
	}
	r.layer.timing("runner.warm_run_us", warm, 1e6)
	return nil
}

// mapMemo is an in-memory runner.Memo: the all-hit memo sweep.assemble_ms
// runs over, so that probe touches neither the simulator nor the disk.
type mapMemo struct {
	mu sync.Mutex
	m  map[string]runner.Result
}

func (m *mapMemo) Get(key string) (runner.Result, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	res, ok := m.m[key]
	return res, ok
}

func (m *mapMemo) Put(key string, res runner.Result) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.m[key] = res
}

// capturingMemo passes Gets through to next and keeps every hit.
type capturingMemo struct {
	next runner.Memo
	into *mapMemo
}

func (c capturingMemo) Get(key string) (runner.Result, bool) {
	res, ok := c.next.Get(key)
	if ok {
		c.into.Put(key, res)
	}
	return res, ok
}

func (c capturingMemo) Put(key string, res runner.Result) { c.next.Put(key, res) }

// sweepProbes times the sweep layer alone: normalizing and keying the
// spec, expanding + claiming + assembling over an all-hit in-memory memo,
// and rendering the result as CSV.
func sweepProbes(ctx context.Context, r *run, dir string, spec slicc.SweepSpec, res *slicc.SweepResult) error {
	n := r.size.probeIters
	var norms []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		if _, err := spec.Normalized(); err != nil {
			return err
		}
		if _, err := spec.Key(); err != nil {
			return err
		}
		norms = append(norms, time.Since(t).Seconds())
	}
	r.layer.timing("sweep.normalize_us", norms, 1e6)

	// One pass over the warm store captures every cell's result in memory.
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	captured := &mapMemo{m: make(map[string]runner.Result)}
	pool := runner.New(runner.Options{Workers: runtime.GOMAXPROCS(0), Memo: capturingMemo{next: runner.NewStoreMemo(st), into: captured}})
	_, err = sweep.RunStream(ctx, pool, spec, func(sweep.Event) {})
	pool.Close()
	if err != nil {
		return err
	}
	var assembles []float64
	for i := 0; i < max(3, n/10); i++ {
		pool := runner.New(runner.Options{Workers: runtime.GOMAXPROCS(0), Memo: captured})
		t := time.Now()
		_, err := sweep.RunStream(ctx, pool, spec, func(sweep.Event) {})
		assembles = append(assembles, time.Since(t).Seconds())
		executed := pool.Stats().JobsExecuted
		pool.Close()
		if err != nil {
			return err
		}
		if executed != 0 {
			return fmt.Errorf("sweep probe: an all-hit assembly executed %d jobs", executed)
		}
	}
	r.layer.timing("sweep.assemble_ms", assembles, 1e3)

	var csvs []float64
	var buf bytes.Buffer
	for i := 0; i < max(3, n/10); i++ {
		buf.Reset()
		t := time.Now()
		if err := res.WriteCSV(&buf); err != nil {
			return err
		}
		csvs = append(csvs, time.Since(t).Seconds())
	}
	r.layer.timing("sweep.csv_ms", csvs, 1e3)
	return nil
}

// get issues one GET through the rig's (possibly traced) HTTP client and
// returns the status and body.
func (g *rig) get(ctx context.Context, path, ifNoneMatch string) (int, []byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.url+path, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := g.httpc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header, err
}

// serverProbes times the read side of a service holding one done sweep,
// from handler spans: the cached body, the 304, the uncached body (on a
// second service with the response cache off), stats, the metrics scrape
// and the SSE replay; plus what the client side adds per exchange. Both
// services run over the warm store in dir.
func serverProbes(ctx context.Context, r *run, dir string, spec slicc.SweepSpec) error {
	n := r.size.probeIters
	g, err := newRig(rigOptions{storeDir: dir, rec: r.rec})
	if err != nil {
		return err
	}
	defer g.close()
	sw, err := g.client.SubmitSweep(ctx, spec, true)
	if err != nil {
		return err
	}
	path := "/v1/sweeps/" + sw.ID

	root := r.rec.beginPass("server probes")
	status, want, hdr, err := g.get(ctx, path, "")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("server probe: GET %s: status %d, %v", path, status, err)
	}
	etag := hdr.Get("ETag")
	for i := 0; i < n; i++ {
		status, body, _, err := g.get(ctx, path, "")
		if err != nil || status != http.StatusOK || !bytes.Equal(body, want) {
			return fmt.Errorf("server probe: cached GET: status %d, %d bytes (want %d), %v", status, len(body), len(want), err)
		}
		if status, _, _, err := g.get(ctx, path, etag); err != nil || status != http.StatusNotModified {
			return fmt.Errorf("server probe: conditional GET: status %d, %v", status, err)
		}
		if status, _, _, err := g.get(ctx, "/v1/stats", ""); err != nil || status != http.StatusOK {
			return fmt.Errorf("server probe: GET /v1/stats: status %d, %v", status, err)
		}
		if status, _, _, err := g.get(ctx, "/metrics", ""); err != nil || status != http.StatusOK {
			return fmt.Errorf("server probe: GET /metrics: status %d, %v", status, err)
		}
	}
	for i := 0; i < max(3, n/10); i++ {
		stream, err := g.client.StreamSweep(ctx, sw.ID)
		if err != nil {
			return err
		}
		for {
			if _, err := stream.Next(); err == io.EOF {
				break
			} else if err != nil {
				return err
			}
		}
	}
	r.rec.endPass(root)
	stats, err := g.client.Stats(ctx)
	if err != nil {
		return err
	}
	if rc := stats.ResponseCache; rc.Hits+rc.Misses > 0 {
		r.layer.set("server.respcache_hit_share", float64(rc.Hits)/float64(rc.Hits+rc.Misses), 0)
	}

	// The uncached body: the same store behind a service with the response
	// cache off.
	bare, err := newRig(rigOptions{storeDir: dir, noResponseCache: true, rec: r.rec})
	if err != nil {
		return err
	}
	defer bare.close()
	if _, err := bare.client.SubmitSweep(ctx, spec, true); err != nil {
		return err
	}
	uncached := r.rec.beginPass("server probes, response cache off")
	for i := 0; i < max(3, n/4); i++ {
		status, body, _, err := bare.get(ctx, path, "")
		if err != nil || status != http.StatusOK || !bytes.Equal(body, want) {
			return fmt.Errorf("server probe: uncached GET: status %d, %d bytes (want %d), %v", status, len(body), len(want), err)
		}
	}
	r.rec.endPass(uncached)

	r.layer.timing("server.get_cached_us", r.rec.seconds(root, "server GET /v1/sweeps/{id}"), 1e6)
	r.layer.timing("server.get_304_us", r.rec.seconds(root, "server GET /v1/sweeps/{id} (conditional)"), 1e6)
	r.layer.timing("server.stats_us", r.rec.seconds(root, "server GET /v1/stats"), 1e6)
	r.layer.timing("telemetry.scrape_us", r.rec.seconds(root, "server GET /metrics"), 1e6)
	r.layer.timing("server.events_replay_ms", r.rec.seconds(root, "server GET /v1/sweeps/{id}/events"), 1e3)
	r.layer.timing("server.get_uncached_us", r.rec.seconds(uncached, "server GET /v1/sweeps/{id}"), 1e6)
	r.layer.timing("sdk.roundtrip_us", r.rec.clientOverheads(root), 1e6)
	return nil
}

// queueProbes times the durable queue's operations on a scratch queue:
// enqueue, lease at depth 1 and at depth 512 (pickLocked scans every
// entry), and complete.
func queueProbes(ctx context.Context, r *run, sample []replayCell) error {
	dir, err := os.MkdirTemp("", "slicc-bench-queue-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	payload, err := json.Marshal(sample[0].job())
	if err != nil {
		return err
	}
	n := r.size.probeIters

	deep, err := queue.Open(filepath.Join(dir, "deep"), queue.Options{})
	if err != nil {
		return err
	}
	defer deep.Close()
	const depth = 512
	var enqueues []float64
	for i := 0; i < depth+n; i++ {
		id := fmt.Sprintf("probe-%04d", i)
		t := time.Now()
		_, err := deep.Enqueue(id, payload)
		enqueues = append(enqueues, time.Since(t).Seconds())
		if err != nil {
			return err
		}
	}
	r.layer.timing("queue.enqueue_us", enqueues, 1e6)
	var deepLeases, completes []float64
	for i := 0; i < n; i++ { // depth falls from 512+n to 512
		t := time.Now()
		job, err := deep.Lease(ctx, "probe", 0)
		deepLeases = append(deepLeases, time.Since(t).Seconds())
		if err != nil || job == nil {
			return fmt.Errorf("queue probe: lease at depth: %v", err)
		}
		t = time.Now()
		err = deep.Complete(job.ID, job.Holder)
		completes = append(completes, time.Since(t).Seconds())
		if err != nil {
			return err
		}
	}
	r.layer.timing("queue.lease_us_d512", deepLeases, 1e6)
	r.layer.timing("queue.complete_us", completes, 1e6)

	shallow, err := queue.Open(filepath.Join(dir, "shallow"), queue.Options{})
	if err != nil {
		return err
	}
	defer shallow.Close()
	var leases []float64
	for i := 0; i < n; i++ {
		if _, err := shallow.Enqueue(fmt.Sprintf("probe-%04d", i), payload); err != nil {
			return err
		}
		t := time.Now()
		job, err := shallow.Lease(ctx, "probe", 0)
		leases = append(leases, time.Since(t).Seconds())
		if err != nil || job == nil {
			return fmt.Errorf("queue probe: lease at depth 1: %v", err)
		}
		if err := shallow.Complete(job.ID, job.Holder); err != nil {
			return err
		}
	}
	r.layer.timing("queue.lease_us", leases, 1e6)
	return nil
}
