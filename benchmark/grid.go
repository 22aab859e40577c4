package main

// grid_cold: the CLI user's path and the paper's whole evaluation — the
// in-process equal of `experiments -run all -quick` on a fresh engine with
// no store. Long cells, > 99 % of the time in internal/sim's loop: store,
// server and queue do nothing here, so this is where hot-loop work must
// show and where service-side work must not.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"slicc"
	"slicc/internal/sched"
	"slicc/internal/sim"
	"slicc/internal/trace"
	"slicc/internal/workload"
)

// goldenGridSeed1 holds the SHA-256 of the quick grid's rendered tables at
// seed 1. A change meant only to speed the simulator must leave it alone.
const goldenGridSeed1 = "benchmark/golden/grid-quick-seed1.sha256"

// gridReferenceInstr is the size wall_s is reported for: the quick grid
// executes 350 M instructions at seed 1 (349,945,280) and 320–360 M at
// other seeds.
const gridReferenceInstr = 350e6

// renderGrid runs every experiment id on eng and returns the rendered
// tables, byte for byte what `experiments -run all -quick` prints.
func renderGrid(ctx context.Context, rec *recorder, eng *slicc.Engine, ids []string, seed int64) ([]byte, error) {
	var buf bytes.Buffer
	for _, id := range ids {
		sp := rec.begin("experiments."+id, 0, "")
		tables, err := eng.ExperimentWith(ctx, id, slicc.ExperimentOptions{Quick: true, Seed: seed})
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", id, err)
		}
		for _, t := range tables {
			t.Format(&buf)
		}
	}
	return buf.Bytes(), nil
}

// gridPass is one cold pass: a fresh engine, every experiment.
type gridPass struct {
	wall   float64
	digest string
	stats  slicc.EngineStats
	// rerender is the time a second, fully memoized render of every
	// experiment took on the same engine (table assembly only), and
	// rerenderSame whether it reproduced the cold render's bytes.
	rerender     float64
	rerenderSame bool
}

func runGridPass(ctx context.Context, r *run, rec *recorder, ids []string) (gridPass, error) {
	var p gridPass
	opts := slicc.EngineOptions{Workers: runtime.GOMAXPROCS(0)}
	if rec != nil {
		// The callback `experiments -progress` uses: counts only, called as
		// simulations are scheduled and as they finish, from any goroutine.
		var mu sync.Mutex
		done := 0
		opts.Progress = func(d, _ int) {
			mu.Lock()
			finished := d - done
			done = max(done, d)
			mu.Unlock()
			for ; finished > 0; finished-- {
				rec.mark("runner.job_done", "")
			}
		}
	}
	eng, err := slicc.NewEngine(opts)
	if err != nil {
		return p, err
	}
	defer eng.Close()

	r.setupDone()
	t := time.Now()
	out, err := renderGrid(ctx, rec, eng, ids, r.seed)
	p.wall = time.Since(t).Seconds()
	p.stats = eng.Stats()
	if err != nil {
		return p, err
	}
	sum := sha256.Sum256(out)
	p.digest = hex.EncodeToString(sum[:])

	t = time.Now()
	again, err := renderGrid(ctx, nil, eng, ids, r.seed)
	p.rerender = time.Since(t).Seconds()
	if err != nil {
		return p, err
	}
	p.rerenderSame = bytes.Equal(out, again)
	return p, nil
}

func runGridCold(ctx context.Context, r *run) error {
	ids := r.size.gridIDs
	if ids == nil {
		ids = slicc.ExperimentIDs()
	}

	var (
		walls  []float64
		passes []gridPass
	)
	runPass := func(rec *recorder) {
		p, err := runGridPass(ctx, r, rec, ids)
		jobs := max(p.stats.SimsRequested, 1)
		r.attempted += jobs
		if err != nil {
			r.failed += jobs
			r.check("grid pass", false, "%v", err)
			return
		}
		walls = append(walls, p.wall)
		passes = append(passes, p)
	}

	if r.traced() {
		// A pass to warm the process, the pass under the recorder and the CPU
		// profile, and the same pass bare again: the last two differ by the
		// tracing overhead.
		runPass(nil)
		_, err := tracedPass(r, "grid_cold pass", func() (struct{}, int, error) {
			before := r.attempted
			runPass(r.rec)
			return struct{}{}, r.attempted - before, nil
		})
		if err != nil {
			return err
		}
		runPass(nil)
	} else {
		for start := time.Now(); morePasses(start, walls, r.seconds) && r.failed == 0; {
			runPass(nil)
		}
	}
	if len(passes) == 0 {
		return nil // the failed pass is already recorded
	}

	var instr uint64
	for _, p := range passes {
		instr += p.stats.InstructionsSimulated
		st := p.stats
		r.check("grid stats identity", st.SimsRequested == st.SimsExecuted+st.DedupHits+st.StoreHits+st.SimsRemote,
			"requested %d = executed %d + dedup %d + store %d + remote %d", st.SimsRequested, st.SimsExecuted, st.DedupHits, st.StoreHits, st.SimsRemote)
		r.check("grid memoized re-render", p.rerenderSame, "a second render on the same engine reproduces the tables")
		r.check("grid passes identical", p.digest == passes[0].digest, "pass digest %s vs %s", p.digest[:12], passes[0].digest[:12])
	}
	if r.seed == 1 && r.size.gridIDs == nil {
		want, err := os.ReadFile(filepath.Join(r.root, goldenGridSeed1))
		if err != nil {
			return err
		}
		r.check("grid golden digest", strings.TrimSpace(string(want)) == passes[0].digest,
			"tables sha256 %s, golden %s", passes[0].digest, strings.TrimSpace(string(want)))
	}

	// The operation that matters here is the simulated instruction: the
	// grid's instruction count moves ± 6 % with the seed, and a pass's
	// wall-clock with it; its instructions per second do not. So wall_s is
	// reported for a grid of the reference size — what this engine takes
	// for gridReferenceInstr instructions — and the raw pass time is
	// printed beside it.
	wall := median(walls)
	rate := float64(instr) / float64(len(passes)) / wall
	fmt.Fprintf(r.out, "passes (s): %.3f; median %.3f s for %d instructions\n", walls, wall, instr/uint64(len(passes)))
	r.e2e.set("setup_s", r.setup, 1)
	r.e2e.set("wall_s", gridReferenceInstr/rate, len(walls))
	r.e2e.set("ops_per_s", rate, len(walls))

	if r.traced() && len(passes) == 3 {
		traced, after := passes[1], passes[2]
		r.layer.set("trace_overhead_share", traced.wall/after.wall-1, 1)
		r.layer.set("sim.instructions", float64(traced.stats.InstructionsSimulated), 0)
		r.layer.set("runner.jobs_executed", float64(traced.stats.SimsExecuted), 0)
		r.layer.set("runner.dedup_hits", float64(traced.stats.DedupHits), 0)
		r.layer.set("workload.built", float64(traced.stats.WorkloadsBuilt), 0)
		r.layer.set("experiments.render_ms", traced.rerender*1e3, 1)
		if err := r.notePeakRSS(); err != nil {
			return err
		}
		return gridLayers(r)
	}
	return nil
}

// gridLayers measures the layers grid_cold's time goes to, from outside:
// the hop-by-hop replay of sampled quick-grid cells, the simulator's
// steady-state rate per policy, and the op-stream codec.
func gridLayers(r *run) error {
	root := r.rec.beginPass("replay")
	rr, err := replay(r.rec, quickReplayCells(r.seed, r.size.replayQuick))
	r.rec.endPass(root)
	if err != nil {
		return err
	}
	setReplayMetrics(r.layer, rr)
	r.layer.set("slicc.migrations", float64(rr.migrations), 0)
	r.budget = rr.budget()

	simRunRates(r)
	traceCodecRates(r)
	return nil
}

// simRunRates is BenchmarkMachineRun from outside the package: a small
// TPC-C workload with warm op streams, a fresh machine per run, simulated
// instructions per second for each scheduling policy.
func simRunRates(r *run) {
	w := workload.New(workload.Config{Kind: workload.TPCC1, Threads: 32, Seed: r.seed, Scale: 0.1})
	for i := 0; i < 2; i++ { // settle the op-stream cache
		sim.New(sim.Config{}, sched.NewBaseline(), nil, w.Threads()).Run()
	}
	runs := max(3, r.size.probeIters/40)
	for _, policy := range []string{"base", "steps", "slicc"} {
		spec := replayCell{policy: policy}.policySpec()
		var rates []float64
		for i := 0; i < runs; i++ {
			m := sim.New(sim.Config{}, newPolicy(spec), nil, w.Threads())
			t := time.Now()
			res := m.Run()
			rates = append(rates, float64(res.Instructions)/time.Since(t).Seconds()/1e6)
		}
		r.layer.set("sim.run_minstr_per_s."+policy, median(rates), len(rates))
	}
}

// traceCodecRates measures trace.OpEncoder.Append and MemSource.NextBatch
// on one materialized thread: the codec every warm simulation decodes
// through.
func traceCodecRates(r *run) {
	w := workload.New(workload.Config{Kind: workload.TPCC1, Threads: 8, Seed: r.seed, Scale: 0.35})
	ops := trace.Record(w.Threads()[0].New(), 0)
	if len(ops) == 0 {
		return
	}
	reps := max(3, r.size.probeIters/20)
	var enc trace.OpEncoder
	var encRates, decRates []float64
	for i := 0; i < reps; i++ {
		enc = trace.OpEncoder{}
		t := time.Now()
		for _, op := range ops {
			enc.Append(op)
		}
		encRates = append(encRates, float64(len(ops))/time.Since(t).Seconds()/1e6)
	}
	batch := make([]trace.Op, 256)
	for i := 0; i < reps; i++ {
		src := enc.Source()
		n := 0
		t := time.Now()
		for {
			k := src.NextBatch(batch)
			if k == 0 {
				break
			}
			n += k
		}
		decRates = append(decRates, float64(n)/time.Since(t).Seconds()/1e6)
	}
	r.layer.set("trace.encode_mops_per_s", median(encRates), len(encRates))
	r.layer.set("trace.decode_mops_per_s", median(decRates), len(decRates))
}
