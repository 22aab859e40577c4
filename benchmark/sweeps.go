package main

// sweep_tiny_serve and fleet_tiny: the service user's cold path on many
// small distinct cells. Every per-cell hop — spec decode, expansion,
// runner claim, store probe-miss, workload synthesis, sim.New, result
// encode, store Put, event emit, SSE delivery — is crossed once a cell;
// fleet_tiny runs the identical cells through the distributed control
// plane, adding exactly the queue and worker hops, so its ops_per_s over
// sweep_tiny_serve's is the distributed overhead.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"slicc"
	"slicc/internal/queue"
)

// sweepPass is one cold pass of the tiny spec through a fresh service.
type sweepPass struct {
	dir   string
	rig   *rig
	wall  float64 // seconds from WatchSweep's POST to its result
	first float64 // seconds from the POST to the first cell event
	res   *slicc.SweepResult
	stats slicc.EngineStats // the serving engine's counters
	queue queue.Stats       // zero unless distributed
	// workersDone / workersFailed sum the fleet's outcome counters.
	workersDone, workersFailed int64
}

// storeDir is the pass's result store.
func (p *sweepPass) storeDir() string { return filepath.Join(p.dir, "store") }

// close shuts the pass's service down; remove deletes its directories.
func (p *sweepPass) close() error {
	if p.rig == nil {
		return nil
	}
	err := p.rig.close()
	p.rig = nil
	return err
}

func (p *sweepPass) remove() error { return os.RemoveAll(p.dir) }

// startSweepRig builds a fresh store directory and a service over it.
func startSweepRig(distributed bool, rec *recorder) (*sweepPass, error) {
	dir, err := os.MkdirTemp("", "slicc-bench-")
	if err != nil {
		return nil, err
	}
	p := &sweepPass{dir: dir}
	p.rig, err = newRig(rigOptions{storeDir: p.storeDir(), distributed: distributed, rec: rec})
	if err != nil {
		p.rig = nil
		p.remove()
		return nil, err
	}
	return p, nil
}

// watch submits spec through the SDK and follows it to its result.
func (p *sweepPass) watch(ctx context.Context, spec slicc.SweepSpec, cells int, rec *recorder) error {
	t := time.Now()
	res, err := p.rig.client.WatchSweep(ctx, spec, func(ev slicc.SweepEvent) {
		if ev.Type != slicc.SweepEventCell {
			return
		}
		if p.first == 0 {
			p.first = time.Since(t).Seconds()
		}
		rec.mark("sweep.event", fmt.Sprint(ev.Index))
	})
	p.wall = time.Since(t).Seconds()
	p.res = res
	p.stats = p.rig.eng.Stats()
	if p.rig.queue != nil {
		p.queue = p.rig.queue.Stats()
		p.workersDone, p.workersFailed = p.rig.workerCounts(int64(cells))
	}
	return err
}

// verifySweep checks a finished pass: the serving engine's counters add
// up, a distributed control plane executed nothing itself and drained its
// queue, and a fresh standalone engine over the pass's store answers the
// same spec from the store alone with the result SSE delivered.
func verifySweep(ctx context.Context, r *run, p *sweepPass, spec slicc.SweepSpec, cells int, distributed bool) bool {
	ok := true
	st := p.stats
	ok = r.check("engine stats identity", st.SimsRequested == st.SimsExecuted+st.DedupHits+st.StoreHits+st.SimsRemote,
		"requested %d = executed %d + dedup %d + store %d + remote %d", st.SimsRequested, st.SimsExecuted, st.DedupHits, st.StoreHits, st.SimsRemote) && ok
	if distributed {
		ok = r.check("control plane executes nothing", st.SimsExecuted == 0 && st.SimsRemote == cells,
			"executed %d, remote %d of %d cells", st.SimsExecuted, st.SimsRemote, cells) && ok
		q := p.queue
		ok = r.check("queue drained", q.Dead == 0 && q.Pending == 0 && q.Leased == 0 && q.Completions == q.Enqueued,
			"dead %d pending %d leased %d, %d of %d completed", q.Dead, q.Pending, q.Leased, q.Completions, q.Enqueued) && ok
	}

	fresh, err := slicc.NewEngine(slicc.EngineOptions{Workers: runtime.GOMAXPROCS(0), StoreDir: p.storeDir()})
	if err != nil {
		return r.check("standalone replay", false, "%v", err)
	}
	defer fresh.Close()
	again, err := fresh.SweepStream(ctx, spec, nil)
	if err != nil {
		return r.check("standalone replay", false, "%v", err)
	}
	fs := fresh.Stats()
	ok = r.check("standalone replay is all store hits", fs.StoreHits == cells && fs.SimsExecuted == 0,
		"%d store hits, %d executed, want %d and 0", fs.StoreHits, fs.SimsExecuted, cells) && ok
	a, aerr := json.Marshal(p.res)
	b, berr := json.Marshal(again)
	ok = r.check("standalone replay equals the streamed result", aerr == nil && berr == nil && bytes.Equal(a, b),
		"%d bytes over SSE, %d bytes replayed", len(a), len(b)) && ok
	return ok
}

func runSweepTiny(ctx context.Context, r *run, distributed bool) error {
	spec, err := tinySpec(r.seed, r.size.tinySeeds)
	if err != nil {
		return err
	}
	cells := len(tinyWorkloads) * len(tinyPolicies) * r.size.tinySeeds

	var walls []float64
	// pass runs one cold pass and verifies it. With keepStore, the pass's
	// store outlives it, for the traced run's probes.
	pass := func(rec *recorder, keepStore bool) (*sweepPass, error) {
		p, err := startSweepRig(distributed, rec)
		if err != nil {
			return nil, err
		}
		r.attempted += cells
		werr := p.watch(ctx, spec, cells, rec)
		switch {
		case werr != nil:
			r.check("sweep pass", false, "%v", werr)
			r.failed += cells
		case !verifySweep(ctx, r, p, spec, cells, distributed):
			r.failed += cells
		default:
			walls = append(walls, p.wall)
		}
		err = p.close()
		if !keepStore {
			err = errors.Join(err, p.remove())
		}
		return p, err
	}

	// Set-up ends with one whole pass, verified like the others but not
	// timed: sliccd is a long-running service, and the first sweep of a
	// process pays some 1.5 s of heap growth and page faults that no later
	// one does. Timed together they made wall_s the mean of two different
	// things; setup_s is where the cold start shows.
	if _, err := pass(nil, false); err != nil {
		return err
	}
	walls = nil
	r.setupDone()

	var traced *sweepPass
	if r.traced() {
		// The traced pass, and a bare pass again: the two differ by the
		// tracing overhead.
		traced, err = tracedPass(r, r.workload+" pass", func() (*sweepPass, int, error) {
			p, err := pass(r.rec, true)
			return p, cells, err
		})
		if traced != nil {
			defer traced.remove()
		}
		if err != nil {
			return err
		}
		after, err := pass(nil, false)
		if err != nil {
			return err
		}
		if after.wall > 0 && traced.wall > 0 {
			r.layer.set("trace_overhead_share", traced.wall/after.wall-1, 1)
		}
	} else {
		for start := time.Now(); morePasses(start, walls, r.seconds) && r.failed == 0; {
			if _, err := pass(nil, false); err != nil {
				return err
			}
		}
	}

	r.e2e.set("setup_s", r.setup, 1)
	if len(walls) > 0 {
		wall := median(walls)
		fmt.Fprintf(r.out, "passes (s, POST to result): %.3f\n", walls)
		r.e2e.set("wall_s", wall, len(walls))
		r.e2e.set("ops_per_s", float64(cells)/wall, len(walls))
	}
	if traced != nil && traced.res != nil {
		r.layer.set("server.first_event_ms", traced.first*1e3, 1)
		if err := r.notePeakRSS(); err != nil {
			return err
		}
		return serviceLayers(ctx, r, traced, spec, cells, distributed)
	}
	return nil
}
