package sim_test

// Differential tests for the event-horizon scheduler: RunContext's batched
// loop must produce bit-identical results — counters, cycles, event logs,
// per-core stats, transaction latencies — to the one-instruction-per-scan
// reference loop (Machine.UseReferenceLoop), across every policy family
// and machine feature that touches the hot path. The reference loop also
// decodes ops through plain Source.Next, so these runs double as
// NextBatch-vs-Next equivalence checks over real workloads.

import (
	"fmt"
	"math/rand"
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

// matrixCase is one machine/policy configuration of the differential
// matrix: every policy family and machine feature that touches the hot
// path.
type matrixCase struct {
	name      string
	cfg       sim.Config
	newPolicy func() sim.Policy
	newPref   func() sim.Prefetcher // nil: no prefetcher
}

// machine builds a fresh machine for the case.
func (c matrixCase) machine(threads []trace.Thread) *sim.Machine {
	var pref sim.Prefetcher
	if c.newPref != nil {
		pref = c.newPref()
	}
	return sim.New(c.cfg, c.newPolicy(), pref, threads)
}

// runBoth executes the case under the event-horizon and reference
// schedulers and requires deeply equal results, equal per-core cache and
// TLB statistics and equal reuse breakdowns. It returns the event-horizon
// machine's loop counts.
func runBoth(t *testing.T, c matrixCase, threads []trace.Thread) sim.LoopStats {
	t.Helper()
	fast := c.machine(threads)
	got := fast.Run()

	slow := c.machine(threads)
	slow.UseReferenceLoop(true)
	want := slow.Run()

	if !reflect.DeepEqual(got, want) {
		t.Errorf("event-horizon result diverges from reference:\n got: %+v\nwant: %+v", got, want)
	}
	for core := 0; core < fast.Cores(); core++ {
		if g, w := fast.L1I(core).Stats(), slow.L1I(core).Stats(); g != w {
			t.Errorf("core %d L1-I stats: got %+v, want %+v", core, g, w)
		}
		if g, w := fast.L1D(core).Stats(), slow.L1D(core).Stats(); g != w {
			t.Errorf("core %d L1-D stats: got %+v, want %+v", core, g, w)
		}
		if fast.ITLB(core) == nil {
			continue
		}
		if g, w := fast.ITLB(core).Stats(), slow.ITLB(core).Stats(); g != w {
			t.Errorf("core %d I-TLB stats: got %+v, want %+v", core, g, w)
		}
		if g, w := fast.DTLB(core).Stats(), slow.DTLB(core).Stats(); g != w {
			t.Errorf("core %d D-TLB stats: got %+v, want %+v", core, g, w)
		}
	}
	if fr, sr := fast.Reuse(), slow.Reuse(); fr != nil {
		if g, w := fr.Global(), sr.Global(); g != w {
			t.Errorf("global reuse: got %+v, want %+v", g, w)
		}
		if g, w := fr.PerType(), sr.PerType(); g != w {
			t.Errorf("per-type reuse: got %+v, want %+v", g, w)
		}
	}
	ls := fast.LoopStats()
	if ls.Events+ls.RunInstructions != got.Instructions {
		t.Errorf("loop stats %+v do not add up to %d instructions", ls, got.Instructions)
	}
	if ref := slow.LoopStats(); ref.RunInstructions != 0 {
		t.Errorf("reference loop retired %d instructions in runs", ref.RunInstructions)
	}
	return ls
}

func policyMatrix(w *workload.Workload) []matrixCase {
	baseline := func() sim.Policy { return sched.NewBaseline() }
	sliccSW := func() sim.Policy { return islicc.New(islicc.DefaultConfig(islicc.SW)) }
	classify := sim.Config{Cores: 4}
	classify.L1I.Classify = true
	classify.L1D.Classify = true
	observed := classify
	observed.EnableTLB, observed.TrackReuse = true, true
	cases := []matrixCase{
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
		// CSP has no quiet-run hook (it may move a thread at any
		// instruction): the machine must step it one instruction at a time.
		{"csp", sim.Config{Cores: 8, LogEvents: true},
			func() sim.Policy {
				var ranges []sched.BlockRange
				for _, r := range w.SharedRanges() {
					ranges = append(ranges, sched.BlockRange{Lo: r[0], Hi: r[1]})
				}
				return sched.NewCSP(ranges)
			}, nil},
		{"observed-machine", observed, baseline,
			func() sim.Prefetcher { return prefetch.NewNextLine() }},
		{"peer-transfer", sim.Config{Cores: 4, InstrPeerTransfer: true}, baseline, nil},
		// The MaxInstructions abort must trigger at the same instruction.
		{"aborted", sim.Config{Cores: 4, MaxInstructions: 5000}, baseline, nil},
		{"aborted-slicc", sim.Config{Cores: 4, MaxInstructions: 5000}, sliccSW, nil},
	}
	// Each observer of the fetch and data paths alone, so none can hide
	// behind another: all of them ride the line micro-cache and quiet
	// runs, under a policy that never moves a thread and one that does.
	observers := []struct {
		name    string
		cfg     sim.Config
		newPref func() sim.Prefetcher
	}{
		{"classify", classify, nil},
		{"tlb", sim.Config{Cores: 4, EnableTLB: true}, nil},
		{"reuse", sim.Config{Cores: 4, TrackReuse: true}, nil},
		{"next-line", sim.Config{Cores: 4}, func() sim.Prefetcher { return prefetch.NewNextLine() }},
		{"stream", sim.Config{Cores: 4}, func() sim.Prefetcher { return prefetch.NewStream() }},
	}
	for _, o := range observers {
		cases = append(cases,
			matrixCase{o.name + "-base", o.cfg, baseline, o.newPref},
			matrixCase{o.name + "-slicc-sw", o.cfg, sliccSW, o.newPref})
	}
	return cases
}

func TestEventHorizonMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is not short")
	}
	w := tinyWorkload(t)
	for _, c := range policyMatrix(w) {
		t.Run(c.name, func(t *testing.T) {
			ls := runBoth(t, c, w.Threads())
			// Runs are off exactly where the machine must count single
			// instructions; everywhere else most instructions are quiet.
			_, hooked := c.newPolicy().(sim.QuietRunObserver)
			perInstr := c.cfg.MaxInstructions > 0 || !hooked
			if perInstr && ls.RunInstructions != 0 {
				t.Errorf("retired %d instructions in runs on a per-instruction machine", ls.RunInstructions)
			}
			if !perInstr && ls.RunInstructions < ls.Events {
				t.Errorf("quiet runs retired only %d of %d instructions", ls.RunInstructions, ls.Events+ls.RunInstructions)
			}
		})
	}
}

// randomOps draws one thread's op stream for the property test: a PC walk
// that mostly advances sequentially (crossing lines as it goes) but also
// jumps inside its line, backwards, and across a small shared code region;
// spins that stay on one line for longer than a decode batch; and reads
// and writes to a handful of shared data blocks, so invalidations hit
// other cores' current data lines. Lengths fall below, at and well above
// the 256-op decode batch, so streams end mid-run and mid-batch.
func randomOps(rng *rand.Rand) []trace.Op {
	const (
		codeBase, codeBlocks = 0x40000, 48
		dataBase, dataBlocks = 0x900000, 6
	)
	var n int
	switch rng.Intn(3) {
	case 0:
		n = 1 + rng.Intn(40)
	case 1:
		n = 250 + rng.Intn(14)
	default:
		n = 600 + rng.Intn(1200)
	}
	ops := make([]trace.Op, 0, n)
	pc := uint64(codeBase + rng.Intn(codeBlocks)*64)
	spin := 0
	for len(ops) < n {
		op := trace.Op{PC: pc}
		if spin > 0 {
			spin--
		} else if rng.Intn(4) == 0 {
			op.HasData = true
			op.DataAddr = uint64(dataBase + rng.Intn(dataBlocks)*64 + rng.Intn(8)*8)
			op.IsWrite = rng.Intn(3) == 0
		}
		ops = append(ops, op)
		switch r := rng.Intn(100); {
		case spin > 0 || r < 8: // elsewhere in the same line
			pc = pc&^63 + uint64(rng.Intn(16))*4
		case r < 14: // a short backwards branch
			pc -= uint64(1+rng.Intn(24)) * 4
		case r < 22: // a far jump
			pc = uint64(codeBase + rng.Intn(codeBlocks)*64 + rng.Intn(16)*4)
		case r < 23:
			spin = 200 + rng.Intn(400)
		default:
			pc += 4
		}
	}
	return ops
}

// TestRandomStreamsMatchReference is the seeded property behind quiet-run
// retirement and the line micro-cache: whatever the op streams, policy and
// observers, both loops agree. Caches are a few lines big so evictions,
// prefetch fills and migrations are frequent.
func TestRandomStreamsMatchReference(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 15
	}
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		cores := 1 + rng.Intn(4)
		threads := make([]trace.Thread, 1+rng.Intn(3*cores))
		for i := range threads {
			ops := randomOps(rng)
			th := trace.Thread{ID: i, Type: i % 2}
			if i%2 == 0 {
				// A SpanSource: the machine borrows views of ops.
				th.New = func() trace.Source { return trace.NewSliceSource(ops) }
			} else {
				// A BatchSource: the machine decodes into its own buffer.
				var enc trace.OpEncoder
				for _, op := range ops {
					enc.Append(op)
				}
				th.New = func() trace.Source { return enc.Source() }
			}
			threads[i] = th
		}
		c := matrixCase{cfg: sim.Config{
			Cores:             cores,
			EnableTLB:         rng.Intn(2) == 0,
			TrackReuse:        rng.Intn(2) == 0,
			InstrPeerTransfer: rng.Intn(4) == 0,
			LogEvents:         true,
		}}
		kinds := cache.Kinds()
		c.cfg.L1I = cache.Config{SizeBytes: 1024, Ways: 4, Policy: kinds[rng.Intn(len(kinds))], Classify: rng.Intn(2) == 0}
		c.cfg.L1D = cache.Config{SizeBytes: 512, Ways: 2, Policy: kinds[rng.Intn(len(kinds))], Classify: rng.Intn(2) == 0}
		switch rng.Intn(3) {
		case 0:
			c.newPref = func() sim.Prefetcher { return prefetch.NewNextLine() }
		case 1:
			c.newPref = func() sim.Prefetcher { return prefetch.NewStream() }
		}
		switch rng.Intn(4) {
		case 0:
			c.name = "base"
			c.newPolicy = func() sim.Policy { return sched.NewBaseline() }
		case 1:
			c.name = "steps"
			c.newPolicy = func() sim.Policy { return &sched.STEPS{ChunkMisses: 6} }
		case 2:
			c.name = "csp"
			c.newPolicy = func() sim.Policy {
				p := sched.NewCSP([]sched.BlockRange{{Lo: 0x40000 / 64, Hi: 0x40000/64 + 16}})
				p.MinStay = 20
				return p
			}
		default:
			c.name = "slicc"
			variant := islicc.Variant(rng.Intn(2)) // Oblivious or SW
			yield := rng.Intn(2) == 0
			c.newPolicy = func() sim.Policy {
				cfg := islicc.DefaultConfig(variant)
				cfg.FillUpT, cfg.MatchedT, cfg.DilutionT, cfg.MSVWindow = 6, 2, 2, 16
				cfg.YieldOnStay = yield
				return islicc.New(cfg)
			}
		}
		t.Run(fmt.Sprintf("seed%d-%s-%dcores", seed, c.name, cores), func(t *testing.T) {
			runBoth(t, c, threads)
		})
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
	w := tinyWorkload(t)
	threads := w.Threads()
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
	for _, c := range policyMatrix(w) {
		t.Run(c.name, func(t *testing.T) {
			// Two collections empty the storage pools (sync.Pool keeps
			// one cycle's victims), so the baseline allocates afresh.
			runtime.GC()
			runtime.GC()
			fresh := c.machine(threads)
			if fresh.Recycled() {
				t.Fatal("baseline machine was built on recycled storage")
			}
			want := fresh.Run()

			var m *sim.Machine
			for try := 0; ; try++ {
				dirty(c.cfg)
				if m = c.machine(threads); m.Recycled() {
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

	for _, mc := range []matrixCase{
		{"trace-base", sim.Config{Cores: 8}, func() sim.Policy { return sched.NewBaseline() }, nil},
		{"trace-steps", sim.Config{Cores: 4, LogEvents: true}, func() sim.Policy { return sched.NewSTEPS() }, nil},
	} {
		t.Run(mc.name, func(t *testing.T) { runBoth(t, mc, c.Threads()) })
	}
}

// TestSteadyStateAllocs asserts the simulation loop does not allocate per
// instruction: runs differing by ~160k instructions must allocate the same
// within a small constant (machine construction, op-cache bookkeeping).
// MaxInstructions makes these per-instruction machines;
// TestSteadyStateAllocsQuietRuns guards the loop every other machine runs.
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

// TestSteadyStateAllocsQuietRuns is TestSteadyStateAllocs for machines that
// retire quiet runs (no MaxInstructions): complete runs of the same eight
// transactions at two workload scales, several hundred thousand
// instructions apart, must allocate the same within a small constant.
func TestSteadyStateAllocsQuietRuns(t *testing.T) {
	measure := func(scale float64) (allocs float64, instr uint64) {
		w := workload.New(workload.Config{Kind: workload.TPCC1, Threads: 8, Seed: 5, Scale: scale})
		run := func() {
			m := sim.New(sim.Config{Cores: 4}, sched.NewBaseline(), nil, w.Threads())
			instr = m.Run().Instructions
			if m.LoopStats().RunInstructions == 0 {
				t.Fatal("machine retired no quiet runs")
			}
		}
		// Warm the workload's op-stream cache, as above.
		run()
		run()
		return testing.AllocsPerRun(5, run), instr
	}
	short, shortInstr := measure(0.05)
	long, longInstr := measure(0.6)
	if longInstr < shortInstr+200_000 {
		t.Fatalf("workloads too close to tell: %d vs %d instructions", shortInstr, longInstr)
	}
	if diff := long - short; diff > 100 {
		t.Fatalf("steady-state loop allocates: %.0f extra allocs over %d extra instructions (short %.0f, long %.0f)",
			diff, longInstr-shortInstr, short, long)
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
