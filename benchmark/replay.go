package main

// The stepwise replay: a seeded sample of cells is taken hop by hop
// through the public functions of each layer — the same calls the runner
// makes for a cold cell, made one at a time from here so each can be
// timed. It yields the per-cell layer budget ("a cold tiny cell spends X %
// in sim.run, Y % in sim.new, Z % in synthesis…") and most of the
// workload/sim/runner/store per-layer metrics.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"slicc"
	"slicc/internal/runner"
	"slicc/internal/sched"
	"slicc/internal/sim"
	islicc "slicc/internal/slicc"
	"slicc/internal/store"
	"slicc/internal/workload"
)

// replayCell is one cell to replay: a workload and a policy token.
type replayCell struct {
	wl     workload.Config
	policy string // base, slicc, slicc-sw or steps
}

func (c replayCell) label() string {
	return fmt.Sprintf("%s/%s/%d", c.wl.Kind.Token(), c.policy, c.wl.Seed)
}

// machine is the Table 2 machine spelled the way sweep cells spell it, so a
// replayed tiny cell has the job key the service stored its result under.
func (c replayCell) machine() sim.Config {
	m := sim.Config{Cores: 16}
	m.L1I.SizeBytes = 32 * 1024
	m.L1D.SizeBytes = 32 * 1024
	return m
}

func (c replayCell) policySpec() runner.PolicySpec {
	switch c.policy {
	case "slicc":
		return runner.PolicySpec{Kind: runner.SLICC, SLICC: islicc.DefaultConfig(islicc.Oblivious)}
	case "slicc-sw":
		return runner.PolicySpec{Kind: runner.SLICC, SLICC: islicc.DefaultConfig(islicc.SW)}
	case "steps":
		return runner.PolicySpec{Kind: runner.STEPS}
	}
	return runner.PolicySpec{Kind: runner.Baseline}
}

func (c replayCell) job() runner.Job {
	return runner.Job{Workload: c.wl, Machine: c.machine(), Policy: c.policySpec()}
}

// newPolicy builds the scheduling policy the runner builds for spec.
func newPolicy(spec runner.PolicySpec) sim.Policy {
	switch spec.Kind {
	case runner.SLICC:
		return islicc.New(spec.SLICC)
	case runner.STEPS:
		return sched.NewSTEPS()
	}
	return sched.NewBaseline()
}

// tinyReplayCells turns sampled tiny-spec cells into replay cells.
func tinyReplayCells(cells []tinyCell) ([]replayCell, error) {
	out := make([]replayCell, len(cells))
	for i, c := range cells {
		kind, err := workload.ParseKind(c.workload)
		if err != nil {
			return nil, err
		}
		out[i] = replayCell{
			wl:     workload.Config{Kind: kind, Threads: tinyThreads, Seed: c.seed, Scale: tinyScale},
			policy: c.policy,
		}
	}
	return out, nil
}

// quickReplayCells samples k cells of the quick experiment grid: the
// paper's four workloads at `experiments -quick` size (40 threads, 80 for
// MapReduce, scale 0.35) under the four scheduling policies.
func quickReplayCells(seed int64, k int) []replayCell {
	var all []replayCell
	for _, kind := range workload.Kinds() {
		threads := 40
		if kind == workload.MapReduce {
			threads = 80
		}
		for _, p := range []string{"base", "slicc", "slicc-sw", "steps"} {
			all = append(all, replayCell{
				wl:     workload.Config{Kind: kind, Threads: threads, Seed: seed, Scale: 0.35},
				policy: p,
			})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:min(k, len(all))]
}

// replayHops lists the hops of a cold cell in the order the replay takes
// them; the budget table keeps this order.
var replayHops = []string{
	"runner.jobkey", "store.get_miss", "workload.new", "workload.materialize",
	"sim.new", "sim.run", "runner.memo_put", "store.get_hit", "runner.memo_get_hit", "event.json",
}

// replayResult is what the replay measured.
type replayResult struct {
	hops         map[string][]float64 // seconds per hop, one sample a cell
	instructions uint64
	migrations   uint64
	ops          uint64 // trace ops drained while materializing
	putBytes     []float64
	keys         []string
}

// budgetRow is one line of the per-cell layer budget.
type budgetRow struct {
	Hop    string  `json:"hop"`
	MeanUS float64 `json:"mean_us"`
	Share  float64 `json:"share"`
}

// hopMean is the mean time a cell spent in one hop.
func (rr *replayResult) hopMean(hop string) float64 {
	xs := rr.hops[hop]
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, s := range xs {
		sum += s
	}
	return sum / float64(len(xs))
}

// budget turns the hop samples into the per-cell budget table.
func (rr *replayResult) budget() []budgetRow {
	var total float64
	for _, h := range replayHops {
		total += rr.hopMean(h)
	}
	rows := make([]budgetRow, len(replayHops))
	for i, h := range replayHops {
		mean := rr.hopMean(h)
		rows[i] = budgetRow{Hop: h, MeanUS: mean * 1e6}
		if total > 0 {
			rows[i].Share = mean / total
		}
	}
	return rows
}

// meanCellSeconds is the mean cost of the hops a worker pays for a cold
// cell when it does them itself: synthesis, construction, the run and the
// result Put.
func (rr *replayResult) meanCellSeconds() float64 {
	var total float64
	for _, h := range []string{"workload.new", "workload.materialize", "sim.new", "sim.run", "runner.memo_put"} {
		total += rr.hopMean(h)
	}
	return total
}

// replay takes each cell through every hop of a cold execution against a
// scratch store, recording one span per hop under a span per cell.
func replay(rec *recorder, cells []replayCell) (*replayResult, error) {
	dir, err := os.MkdirTemp("", "slicc-bench-replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	memo := runner.NewStoreMemo(st)
	// A second memo over the same store is what a restarted process has:
	// nothing decoded yet, so a Get pays the disk read and the gob decode.
	restarted := runner.NewStoreMemo(st)

	rr := &replayResult{hops: make(map[string][]float64)}
	for _, c := range cells {
		cellSpan := rec.begin("replay.cell", 0, c.label())
		hop := func(name string, f func()) {
			id := rec.begin(name, cellSpan, c.label())
			t := time.Now()
			f()
			rr.hops[name] = append(rr.hops[name], time.Since(t).Seconds())
			rec.end(id)
		}

		job := c.job()
		var key string
		hop("runner.jobkey", func() { key = runner.JobKey(job) })
		rr.keys = append(rr.keys, key)
		hop("store.get_miss", func() { st.Get(key) })

		var w *workload.Workload
		hop("workload.new", func() { w = workload.New(c.wl) })
		hop("workload.materialize", func() { rr.ops += drain(w) })
		// A thread's op stream is recorded on its second replay and served
		// from memory from the third: drain once more, untimed, so the run
		// below sees the warm streams every simulation after a workload's
		// first sees.
		drain(w)

		var m *sim.Machine
		hop("sim.new", func() { m = sim.New(job.Machine, newPolicy(job.Policy), nil, w.Threads()) })
		var res sim.Result
		hop("sim.run", func() { res = m.Run() })
		if res.ThreadsFinished != len(w.Threads()) {
			return nil, fmt.Errorf("replay %s: finished %d of %d threads", c.label(), res.ThreadsFinished, len(w.Threads()))
		}
		rr.instructions += res.Instructions
		rr.migrations += res.Migrations

		hop("runner.memo_put", func() { memo.Put(key, runner.Result{Sim: res}) })
		var payload []byte
		var ok bool
		hop("store.get_hit", func() { payload, ok = st.Get(key) })
		if !ok {
			return nil, fmt.Errorf("replay %s: result missing from the store after Put", c.label())
		}
		rr.putBytes = append(rr.putBytes, float64(len(payload)))
		hop("runner.memo_get_hit", func() { _, ok = restarted.Get(key) })
		if !ok {
			return nil, fmt.Errorf("replay %s: a restarted memo could not decode the stored result", c.label())
		}
		ev := slicc.SweepEvent{Type: slicc.SweepEventCell, Total: len(cells), Cell: &slicc.SweepCellResult{
			Instructions: res.Instructions, Cycles: res.Cycles, IMPKI: res.IMPKI(), DMPKI: res.DMPKI(), Migrations: res.Migrations,
		}}
		var encErr error
		hop("event.json", func() { _, encErr = json.Marshal(ev) })
		if encErr != nil {
			return nil, encErr
		}
		rec.end(cellSpan)
	}
	return rr, nil
}

// drain replays every thread of w once and returns the ops it produced.
func drain(w *workload.Workload) uint64 {
	var n uint64
	for _, th := range w.Threads() {
		src := th.New()
		for {
			if _, ok := src.Next(); !ok {
				break
			}
			n++
		}
	}
	return n
}

// setReplayMetrics records the per-layer metrics the replay yields.
func setReplayMetrics(m *metricSet, rr *replayResult) {
	m.timing("runner.jobkey_us", rr.hops["runner.jobkey"], 1e6)
	m.timing("runner.memo_put_us", rr.hops["runner.memo_put"], 1e6)
	m.timing("runner.memo_get_hit_us", rr.hops["runner.memo_get_hit"], 1e6)
	m.timing("store.get_miss_us", rr.hops["store.get_miss"], 1e6)
	m.timing("store.get_hit_disk_us", rr.hops["store.get_hit"], 1e6)
	m.set("store.put_bytes", median(rr.putBytes), len(rr.putBytes))
	m.timing("workload.new_ms", rr.hops["workload.new"], 1e3)
	m.timing("workload.materialize_ms", rr.hops["workload.materialize"], 1e3)
	m.set("workload.ops", float64(rr.ops), 0)
	m.timing("sim.new_ms", rr.hops["sim.new"], 1e3)
}
