package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"slicc"
)

// run is one workload execution: its inputs, and everything it reports.
type run struct {
	root     string
	host     hostInfo
	workload string
	seed     int64
	seconds  float64
	size     size
	out      io.Writer // human-readable report

	// rec is nil unless this is the traced run; passRoot is then the root
	// span of the traced pass, whose spans the layer metrics are read from.
	rec      *recorder
	passRoot int
	// cpuPackages is the traced pass's CPU profile by package.
	cpuPackages map[string]float64

	// e2e holds the end-to-end metrics, layer the per-layer ones. Both are
	// filled where known; the run's mode decides which the result line
	// carries.
	e2e, layer *metricSet

	// attempted / failed count operations: simulation jobs (grid_cold),
	// cells (the sweep workloads) or HTTP requests (warm_reads).
	attempted, failed int
	// setup is the wall-clock before the first timed pass; see setupDone.
	setup float64
	// peakRSS is the process's peak resident set in MB; see notePeakRSS.
	peakRSS float64
	checks  []checkResult
	budget  []budgetRow
}

// checkResult is one correctness check's outcome.
type checkResult struct {
	name   string
	ok     bool
	detail string
}

// processStart is when this process began running Go code: setup_s counts
// from here.
var processStart = time.Now()

// setupDone marks the start of the first timed pass. setup_s is the
// wall-clock from process start to this point: flags, BENCHMARK.json, temp
// dirs, engines, listeners, workers, store warm-up. Only the first call
// counts.
func (r *run) setupDone() {
	if r.setup == 0 {
		// Collect set-up's garbage and hand its pages back now, as part of
		// set-up, so the timed region starts from the heap a fresh process
		// has, not from one the collector and scavenger are still cleaning
		// at moments of their choosing.
		debug.FreeOSMemory()
		r.setup = time.Since(processStart).Seconds()
	}
}

// notePeakRSS records VmHWM, the peak resident set of this process so far.
// Only the first call counts: the traced run calls it when its passes are
// over, before the layer probes and the replay — which simulate, and on
// warm_reads would pass their memory off as the read path's — and every
// run calls it once more at exit.
func (r *run) notePeakRSS() error {
	if r.peakRSS != 0 {
		return nil
	}
	var err error
	r.peakRSS, err = peakRSSMB()
	return err
}

// anchorCycles holds the simulated cycle count of the determinism anchor.
const anchorCycles = "benchmark/golden/anchor-tpcc1-sliccsw-24-0.3.cycles"

// preflight runs the repository's determinism anchor — TPC-C-1 under
// SLICC-SW, 24 threads, scale 0.3, seed 1 (`sliccsim -workload tpcc1
// -policy slicc-sw -threads 24 -scale 0.3`) — before anything is measured,
// and checks its simulated cycles against the golden value: a simulator
// that does not reproduce it is not the simulator the numbers are about.
// The anchor does not depend on --seed, so every run makes this check. It
// is also most of setup_s on the workloads whose own set-up is a
// millisecond: a quarter of a second of fixed work that makes set-up time a
// steady number, on which work moved into set-up still shows.
func (r *run) preflight() error {
	want, err := os.ReadFile(filepath.Join(r.root, anchorCycles))
	if err != nil {
		return err
	}
	res, err := slicc.Run(slicc.Config{Benchmark: slicc.TPCC1, Policy: slicc.SLICCSW, Threads: 24, Scale: 0.3})
	if err != nil {
		return err
	}
	got := fmt.Sprintf("%.0f", res.Cycles)
	r.check("determinism anchor", got == strings.TrimSpace(string(want)), "anchor simulated %s cycles, golden %s", got, strings.TrimSpace(string(want)))
	return nil
}

// check records a correctness check and returns whether it held.
func (r *run) check(name string, ok bool, format string, args ...any) bool {
	r.checks = append(r.checks, checkResult{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
	return ok
}

func (r *run) traced() bool { return r.rec != nil }

// workloads maps each BENCHMARK.json workload name to its implementation.
var workloads = map[string]func(context.Context, *run) error{
	"grid_cold":        runGridCold,
	"sweep_tiny_serve": func(ctx context.Context, r *run) error { return runSweepTiny(ctx, r, false) },
	"fleet_tiny":       func(ctx context.Context, r *run) error { return runSweepTiny(ctx, r, true) },
	"warm_reads":       runWarmReads,
}

// morePasses decides whether a timed region of the given length has room
// for another pass: at least one always runs, and another starts only if a
// pass of the mean length so far still fits — so a run measures as many
// whole passes as --seconds holds.
func morePasses(start time.Time, walls []float64, seconds float64) bool {
	if len(walls) == 0 {
		return true
	}
	var sum float64
	for _, w := range walls {
		sum += w
	}
	mean := sum / float64(len(walls))
	return time.Since(start).Seconds()+mean <= seconds
}

// memDelta measures the allocation and GC cost of a region from
// runtime.MemStats, and samples the goroutine count while it runs.
type memDelta struct {
	before    runtime.MemStats
	stop      chan struct{}
	done      chan struct{}
	peakGorou int
}

func startMemDelta() *memDelta {
	d := &memDelta{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&d.before)
	go func() {
		defer close(d.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			d.peakGorou = max(d.peakGorou, runtime.NumGoroutine())
			select {
			case <-d.stop:
				return
			case <-t.C:
			}
		}
	}()
	return d
}

// finish stops sampling and records the process.* metrics over ops
// operations.
func (d *memDelta) finish(m *metricSet, ops int) {
	close(d.stop)
	<-d.done
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(max(ops, 1))
	m.set("process.alloc_mb_per_op", float64(after.TotalAlloc-d.before.TotalAlloc)/(1<<20)/n, 0)
	m.set("process.allocs_per_op", float64(after.Mallocs-d.before.Mallocs)/n, 0)
	m.set("process.gc_pause_total_ms", float64(after.PauseTotalNs-d.before.PauseTotalNs)/1e6, 0)
	m.set("process.goroutines_peak", float64(d.peakGorou), 0)
}

// tracedPass runs one pass of a workload under the recorder, the CPU
// profile and the allocation counters, and records the process.* and
// <layer>.cpu_share metrics it yields. pass reports how many operations it
// performed.
func tracedPass[T any](r *run, name string, pass func() (T, int, error)) (T, error) {
	prof, err := startCPUProfile()
	if err != nil {
		var zero T
		return zero, err
	}
	mem := startMemDelta()
	r.passRoot = r.rec.beginPass(name)
	out, ops, err := pass()
	r.rec.endPass(r.passRoot)
	mem.finish(r.layer, ops)
	pkgs, perr := prof.stop()
	if err != nil {
		return out, err
	}
	if perr != nil {
		return out, perr
	}
	r.cpuPackages = pkgs
	// A layer with no declared metric of its own counts as "other", so the
	// declared shares sum to 1.
	shares := make(map[string]float64)
	for layer, share := range layerShares(pkgs) {
		if _, ok := r.layer.decl[layer+".cpu_share"]; !ok {
			layer = "other"
		}
		shares[layer] += share
	}
	for name := range r.layer.decl {
		if layer, ok := strings.CutSuffix(name, ".cpu_share"); ok {
			r.layer.set(name, shares[layer], 0)
		}
	}
	return out, nil
}
