package sim_test

// Differential tests for the event-horizon scheduler: RunContext's batched
// loop must produce bit-identical results — counters, cycles, event logs,
// per-core stats, transaction latencies — to the one-instruction-per-scan
// reference loop (Machine.UseReferenceLoop), across every policy family
// and machine feature that touches the hot path. The reference loop also
// decodes ops through plain Source.Next, so these runs double as
// NextBatch-vs-Next equivalence checks over real workloads.

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"slicc/internal/cache"
	"slicc/internal/prefetch"
	"slicc/internal/sched"
	"slicc/internal/sim"
	islicc "slicc/internal/slicc"
	"slicc/internal/trace"
	"slicc/internal/workload"
)

// tinyWorkload synthesizes a small but feature-complete OLTP workload.
func tinyWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	return workload.New(workload.Config{Kind: workload.TPCC1, Threads: 10, Seed: 3, Scale: 0.02})
}

// runBoth executes the same configuration under the batched and reference
// schedulers and requires deeply equal results.
func runBoth(t *testing.T, name string, cfg sim.Config, threads []trace.Thread, newPolicy func() sim.Policy, newPref func() sim.Prefetcher) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		var pref sim.Prefetcher
		if newPref != nil {
			pref = newPref()
		}
		fast := sim.New(cfg, newPolicy(), pref, threads)
		got := fast.Run()

		if newPref != nil {
			pref = newPref()
		}
		slow := sim.New(cfg, newPolicy(), pref, threads)
		slow.UseReferenceLoop(true)
		want := slow.Run()

		if !reflect.DeepEqual(got, want) {
			t.Errorf("batched result diverges from reference:\n got: %+v\nwant: %+v", got, want)
		}
	})
}

// matrixCase is one machine/policy configuration of the differential
// matrix: every policy family and machine feature that touches the hot
// path.
type matrixCase struct {
	name      string
	cfg       sim.Config
	newPolicy func() sim.Policy
	newPref   func() sim.Prefetcher // nil: no prefetcher
}

func policyMatrix() []matrixCase {
	baseline := func() sim.Policy { return sched.NewBaseline() }
	// Fetch observers (prefetcher, TLB, classification, reuse tracking)
	// disable the fast fetch/data paths; the two loops must still agree.
	classify := sim.Config{Cores: 4, EnableTLB: true, TrackReuse: true}
	classify.L1I.Classify = true
	classify.L1D.Classify = true
	return []matrixCase{
		{"base", sim.Config{Cores: 8}, baseline, nil},
		{"base-1core", sim.Config{Cores: 1}, baseline, nil},
		{"steps-events", sim.Config{Cores: 4, LogEvents: true},
			func() sim.Policy { return sched.NewSTEPS() }, nil},
		{"slicc-events", sim.Config{Cores: 8, LogEvents: true},
			func() sim.Policy { return islicc.New(islicc.DefaultConfig(islicc.Oblivious)) }, nil},
		{"slicc-sw-yield", sim.Config{Cores: 8, LogEvents: true},
			func() sim.Policy {
				cfg := islicc.DefaultConfig(islicc.SW)
				cfg.YieldOnStay = true
				return islicc.New(cfg)
			}, nil},
		{"slicc-exact", sim.Config{Cores: 4},
			func() sim.Policy {
				cfg := islicc.DefaultConfig(islicc.Oblivious)
				cfg.ExactSearch = true
				return islicc.New(cfg)
			}, nil},
		{"observed-machine", classify, baseline,
			func() sim.Prefetcher { return prefetch.NewNextLine() }},
		{"peer-transfer", sim.Config{Cores: 4, InstrPeerTransfer: true}, baseline, nil},
		// The MaxInstructions abort must trigger at the same instruction.
		{"aborted", sim.Config{Cores: 4, MaxInstructions: 5000}, baseline, nil},
	}
}

func TestEventHorizonMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is not short")
	}
	threads := tinyWorkload(t).Threads()
	for _, c := range policyMatrix() {
		runBoth(t, c.name, c.cfg, threads, c.newPolicy, c.newPref)
	}
}

// TestRecycledStorageMatchesFresh runs every matrix configuration twice —
// on freshly allocated cache storage, then on storage a machine with a
// different scheduler, prefetcher and replacement family released (RRIP
// leaves metadata that is no recency permutation, and every tag is stale)
// — and requires deeply equal results. A machine of another geometry is
// released alongside, which the geometry-keyed pools must never hand over.
// Under `-tags slowsim` the same comparison runs on the reference loop.
func TestRecycledStorageMatchesFresh(t *testing.T) {
	threads := tinyWorkload(t).Threads()
	build := func(c matrixCase) *sim.Machine {
		var pref sim.Prefetcher
		if c.newPref != nil {
			pref = c.newPref()
		}
		return sim.New(c.cfg, c.newPolicy(), pref, threads)
	}
	dirty := func(cfg sim.Config) {
		cfg.TrackReuse, cfg.LogEvents, cfg.MaxInstructions = false, false, 0
		cfg.L1I.Policy, cfg.L1D.Policy = cache.BRRIP, cache.DRRIP
		m := sim.New(cfg, islicc.New(islicc.DefaultConfig(islicc.SW)), prefetch.NewNextLine(), threads)
		m.Run()
		m.Release()
		cfg.L1I.Ways, cfg.L1D.Ways, cfg.Mem.L2Ways = 4, 16, 8
		m = sim.New(cfg, sched.NewBaseline(), nil, threads)
		m.Run()
		m.Release()
	}
	for _, c := range policyMatrix() {
		t.Run(c.name, func(t *testing.T) {
			// Two collections empty the storage pools (sync.Pool keeps
			// one cycle's victims), so the baseline allocates afresh.
			runtime.GC()
			runtime.GC()
			fresh := build(c)
			if fresh.Recycled() {
				t.Fatal("baseline machine was built on recycled storage")
			}
			want := fresh.Run()

			var m *sim.Machine
			for try := 0; ; try++ {
				dirty(c.cfg)
				if m = build(c); m.Recycled() {
					break
				}
				// The race detector makes sync.Pool drop a quarter of its
				// Puts at random; try again.
				if try == 20 {
					t.Fatal("released storage was never recycled")
				}
			}
			got := m.Run()
			m.Release()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("result on recycled storage diverges from fresh:\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}

// TestConcurrentNewRelease builds, runs and releases machines from several
// goroutines at once (run under -race): recycling must neither share one
// store between two live machines nor change any result.
func TestConcurrentNewRelease(t *testing.T) {
	threads := tinyWorkload(t).Threads()
	cfg := sim.Config{Cores: 4}
	want := sim.New(cfg, sched.NewBaseline(), nil, threads).Run()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				m := sim.New(cfg, sched.NewBaseline(), nil, threads)
				got := m.Run()
				m.Release()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent machine diverges:\n got: %+v\nwant: %+v", got, want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestEventHorizonMatchesReferenceTrace replays a recorded v2 container so
// the differential run exercises FileSource.NextBatch against its plain
// Next decoder inside the machine.
func TestEventHorizonMatchesReferenceTrace(t *testing.T) {
	w := tinyWorkload(t)
	path := filepath.Join(t.TempDir(), "wl.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteWorkload(f, "diff", w.Threads()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := trace.OpenWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	runBoth(t, "trace-base", sim.Config{Cores: 8}, c.Threads(),
		func() sim.Policy { return sched.NewBaseline() }, nil)
	runBoth(t, "trace-steps", sim.Config{Cores: 4, LogEvents: true}, c.Threads(),
		func() sim.Policy { return sched.NewSTEPS() }, nil)
}

// TestSteadyStateAllocs asserts the simulation loop does not allocate per
// instruction: runs differing by ~160k instructions must allocate the same
// within a small constant (machine construction, op-cache bookkeeping).
func TestSteadyStateAllocs(t *testing.T) {
	w := workload.New(workload.Config{Kind: workload.TPCC1, Threads: 8, Seed: 5, Scale: 0.05})
	threads := w.Threads()
	run := func(max uint64) func() {
		return func() {
			m := sim.New(sim.Config{Cores: 4, MaxInstructions: max}, sched.NewBaseline(), nil, threads)
			m.Run()
		}
	}
	// Warm the workload's op-stream cache so recording garbage is not
	// charged to the measured runs.
	run(0)()
	run(0)()

	short := testing.AllocsPerRun(5, run(40_000))
	long := testing.AllocsPerRun(5, run(200_000))
	if diff := long - short; diff > 100 {
		t.Fatalf("steady-state loop allocates: %.0f extra allocs over 160k extra instructions (short %.0f, long %.0f)",
			diff, short, long)
	}
}

// TestNewReleaseAllocBytes guards machine-storage recycling: in steady
// state a default-geometry New+Release pair allocates only the machine's
// small per-run state (cache headers, directory, thread decode buffers) —
// not the 3.8MB of L2 and L1 arrays a fresh machine needs.
func TestNewReleaseAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts at random")
	}
	w := workload.New(workload.Config{Kind: workload.TPCC1, Threads: 4, Seed: 5, Scale: 0.05})
	threads := w.Threads()
	cycle := func() {
		m := sim.New(sim.Config{}, sched.NewBaseline(), nil, threads)
		m.Release()
	}
	for i := 0; i < 3; i++ {
		cycle() // warm the pools and the workload's op-stream ladder
	}
	// Median of per-cycle readings: a goroutine that changes Ps mid-test
	// strands one store in the old P's private pool slot, and that one
	// cycle allocates afresh.
	per := make([]uint64, 21)
	var before, after runtime.MemStats
	for i := range per {
		runtime.ReadMemStats(&before)
		cycle()
		runtime.ReadMemStats(&after)
		per[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(per)
	if med := per[len(per)/2]; med > 64<<10 {
		t.Fatalf("steady-state New+Release allocates %d bytes per machine (median), want <= 64KB", med)
	}
}
