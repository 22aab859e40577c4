package sim

import (
	"testing"

	"slicc/internal/trace"
)

// fifoPolicy is a minimal baseline-like policy for machine tests.
type fifoPolicy struct {
	pending []*ThreadState
	next    int
	// migrateAfter, when positive, migrates every thread to core
	// (current+1) mod N after that many instructions on a core.
	migrateAfter uint64
	queues       map[int][]*ThreadState
	cores        int
}

func (f *fifoPolicy) Name() string { return "fifo" }
func (f *fifoPolicy) Attach(m *Machine, ts []*ThreadState) {
	f.pending = ts
	f.queues = map[int][]*ThreadState{}
	f.cores = m.Cores()
}
func (f *fifoPolicy) NextThread(core int) *ThreadState {
	if q := f.queues[core]; len(q) > 0 {
		f.queues[core] = q[1:]
		return q[0]
	}
	if f.next < len(f.pending) {
		t := f.pending[f.next]
		f.next++
		return t
	}
	return nil
}
func (f *fifoPolicy) OnInstr(core int, t *ThreadState, _ Fetch) int {
	if f.migrateAfter > 0 && t.InstrOnCore >= f.migrateAfter {
		return (core + 1) % f.cores
	}
	return -1
}
func (f *fifoPolicy) OnThreadFinish(core int, t *ThreadState) {}
func (f *fifoPolicy) EnqueueMigrated(core int, t *ThreadState) {
	f.queues[core] = append(f.queues[core], t)
}

// loopThread builds a thread executing `blocks` sequential blocks `reps`
// times (16 instructions per 64B block).
func loopThread(id int, base uint64, blocks, reps int) trace.Thread {
	return trace.Thread{
		ID: id,
		New: func() trace.Source {
			var ops []trace.Op
			for r := 0; r < reps; r++ {
				for b := 0; b < blocks; b++ {
					for i := 0; i < 16; i++ {
						ops = append(ops, trace.Op{PC: base + uint64(b)*64 + uint64(i)*4})
					}
				}
			}
			return trace.NewSliceSource(ops)
		},
	}
}

func dataThread(id int, addrs []uint64, writes bool) trace.Thread {
	return trace.Thread{
		ID: id,
		New: func() trace.Source {
			ops := make([]trace.Op, len(addrs))
			for i, a := range addrs {
				ops[i] = trace.Op{PC: 0x1000 + uint64(i)*4, HasData: true, DataAddr: a, IsWrite: writes}
			}
			return trace.NewSliceSource(ops)
		},
	}
}

func TestRunCompletesAllThreads(t *testing.T) {
	threads := []trace.Thread{
		loopThread(0, 0x10000, 8, 3),
		loopThread(1, 0x20000, 8, 3),
		loopThread(2, 0x30000, 8, 3),
	}
	m := New(Config{Cores: 2}, &fifoPolicy{}, nil, threads)
	r := m.Run()
	if r.ThreadsFinished != 3 {
		t.Fatalf("finished %d/3 threads", r.ThreadsFinished)
	}
	if r.Instructions != 3*8*3*16 {
		t.Fatalf("instructions = %d, want %d", r.Instructions, 3*8*3*16)
	}
	if r.Cycles <= 0 {
		t.Fatal("no cycles accumulated")
	}
	if r.Aborted {
		t.Fatal("run aborted")
	}
}

func TestInstructionMissesCounted(t *testing.T) {
	// One pass over 8 cold blocks: exactly 8 misses; second+third passes hit.
	m := New(Config{Cores: 1}, &fifoPolicy{}, nil, []trace.Thread{loopThread(0, 0x10000, 8, 3)})
	r := m.Run()
	if r.IMisses != 8 {
		t.Fatalf("IMisses = %d, want 8", r.IMisses)
	}
	if r.IAccesses != r.Instructions {
		t.Fatal("each instruction is one I-access")
	}
}

func TestMissLatencySlowsRun(t *testing.T) {
	// Same instruction count; one thread loops in-cache, the other streams.
	inCache := loopThread(0, 0x10000, 8, 64) // 8 blocks revisited
	stream := loopThread(1, 0x800000, 512, 1)
	r1 := New(Config{Cores: 1}, &fifoPolicy{}, nil, []trace.Thread{inCache}).Run()
	r2 := New(Config{Cores: 1}, &fifoPolicy{}, nil, []trace.Thread{stream}).Run()
	if r1.Instructions != r2.Instructions {
		t.Fatalf("instruction counts differ: %d vs %d", r1.Instructions, r2.Instructions)
	}
	if r2.Cycles <= r1.Cycles {
		t.Fatalf("streaming run (%f) not slower than cached run (%f)", r2.Cycles, r1.Cycles)
	}
}

func TestMigrationMovesThread(t *testing.T) {
	threads := []trace.Thread{loopThread(0, 0x10000, 64, 4)}
	p := &fifoPolicy{migrateAfter: 500}
	m := New(Config{Cores: 4}, p, nil, threads)
	r := m.Run()
	if r.Migrations == 0 {
		t.Fatal("no migrations happened")
	}
	if r.ThreadsFinished != 1 {
		t.Fatal("thread did not finish")
	}
	// Migration warms multiple caches: at least two L1-Is saw accesses.
	warmed := 0
	for c := 0; c < 4; c++ {
		if m.L1I(c).Stats().Accesses > 0 {
			warmed++
		}
	}
	if warmed < 2 {
		t.Fatalf("only %d caches touched despite migrations", warmed)
	}
}

func TestMigrationChargesLatency(t *testing.T) {
	base := New(Config{Cores: 4}, &fifoPolicy{}, nil,
		[]trace.Thread{loopThread(0, 0x10000, 8, 100)}).Run()
	migr := New(Config{Cores: 4}, &fifoPolicy{migrateAfter: 300}, nil,
		[]trace.Thread{loopThread(0, 0x10000, 8, 100)}).Run()
	if migr.Cycles <= base.Cycles {
		t.Fatalf("migrating run (%f cycles) not slower than pinned run (%f)", migr.Cycles, base.Cycles)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	// Two threads on two cores read the same block; then one writes it.
	shared := uint64(0xABC000)
	reads := make([]uint64, 50)
	for i := range reads {
		reads[i] = shared
	}
	t0 := dataThread(0, reads, false)
	t1 := dataThread(1, append(append([]uint64{}, reads...), shared), true)
	m := New(Config{Cores: 2}, &fifoPolicy{}, nil, []trace.Thread{t0, t1})
	r := m.Run()
	if r.Invalidations == 0 {
		t.Fatal("no invalidations recorded for write-shared block")
	}
}

func TestDirectoryTracksSharers(t *testing.T) {
	d := newDirectory(4)
	d.addSharer(7, 0)
	d.addSharer(7, 2)
	if d.sharerCount(7) != 2 {
		t.Fatalf("sharerCount = %d", d.sharerCount(7))
	}
	if d.othersOf(7, 0) != 1<<2 {
		t.Fatalf("othersOf = %b", d.othersOf(7, 0))
	}
	d.setExclusive(7, 0)
	if d.sharerCount(7) != 1 || d.othersOf(7, 0) != 0 {
		t.Fatal("setExclusive failed")
	}
	d.removeSharer(7, 0)
	if d.sharerCount(7) != 0 {
		t.Fatal("removeSharer failed")
	}
	if d.tab.Len() != 0 {
		t.Fatal("empty entry not deleted")
	}
}

func TestMaxInstructionsAborts(t *testing.T) {
	m := New(Config{Cores: 1, MaxInstructions: 100}, &fifoPolicy{}, nil,
		[]trace.Thread{loopThread(0, 0x10000, 64, 100)})
	r := m.Run()
	if !r.Aborted {
		t.Fatal("run not aborted")
	}
	if r.Instructions > 110 {
		t.Fatalf("ran %d instructions past the cap", r.Instructions)
	}
}

func TestReuseTracker(t *testing.T) {
	rt := NewReuseTracker(10)
	// Block 1: single thread; block 2: 3/10 threads (few);
	// block 3: 8/10 (most). One access per touch, but two (one counted
	// Record) of block 1.
	rt.Record(1, 0, 0, 2)
	for id := 0; id < 3; id++ {
		rt.Record(2, id, 0, 1)
	}
	for id := 0; id < 8; id++ {
		rt.Record(3, id, 0, 1)
	}
	g := rt.Global()
	total := 2.0 + 3 + 8
	if !approx(g.Single, 2/total) || !approx(g.Few, 3/total) || !approx(g.Most, 8/total) {
		t.Fatalf("global breakdown = %+v", g)
	}
}

func TestReuseTrackerPerType(t *testing.T) {
	rt := NewReuseTracker(8)
	// Type 0: threads 0..3; type 1: threads 4..7.
	// Block 5 is touched by all of type 0 (most within type) and one
	// thread of type 1 (single within type).
	for id := 0; id < 4; id++ {
		rt.Record(5, id, 0, 1)
	}
	rt.Record(5, 4, 1, 1)
	pt := rt.PerType()
	if !approx(pt.Most, 4.0/5) || !approx(pt.Single, 1.0/5) {
		t.Fatalf("per-type breakdown = %+v", pt)
	}
	// Globally 5/8 threads touched it: "most" (>60%).
	if g := rt.Global(); !approx(g.Most, 1) {
		t.Fatalf("global breakdown = %+v", g)
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	r := Result{Instructions: 10000, IMisses: 350, DMisses: 100, Migrations: 4}
	if !approx(r.IMPKI(), 35) || !approx(r.DMPKI(), 10) || !approx(r.MPKI(), 45) {
		t.Fatalf("MPKI wrong: %v %v %v", r.IMPKI(), r.DMPKI(), r.MPKI())
	}
	if !approx(r.InstrPerMigration(), 2500) {
		t.Fatalf("InstrPerMigration = %v", r.InstrPerMigration())
	}
	base := Result{Cycles: 200}
	fast := Result{Cycles: 100}
	if !approx(fast.SpeedupOver(base), 2) {
		t.Fatal("SpeedupOver wrong")
	}
	if (Result{}).InstrPerMigration() <= 1e300 {
		t.Fatal("no-migration InstrPerMigration should be +Inf")
	}
}

func TestPrefetchInstrFills(t *testing.T) {
	m := New(Config{Cores: 1}, &fifoPolicy{}, nil, nil)
	m.PrefetchInstr(0, 0x4000)
	if !m.L1I(0).Contains(0x4000) {
		t.Fatal("prefetch did not fill L1-I")
	}
	if !m.Hierarchy().Contains(0x4000) {
		t.Fatal("prefetch did not install in L2")
	}
	// Idempotent.
	m.PrefetchInstr(0, 0x4000)
	if m.L1I(0).Stats().Fills != 1 {
		t.Fatal("duplicate prefetch filled again")
	}
}

func TestDefaultsApplied(t *testing.T) {
	m := New(Config{}, &fifoPolicy{}, nil, nil)
	if m.Cores() != 16 {
		t.Fatalf("default cores = %d", m.Cores())
	}
	if m.Torus().Nodes() != 16 {
		t.Fatalf("default torus nodes = %d", m.Torus().Nodes())
	}
	if m.L1I(0).Config().SizeBytes != 32*1024 {
		t.Fatal("default L1I size wrong")
	}
}

func approx(got, want float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

func TestPerCoreStats(t *testing.T) {
	threads := []trace.Thread{
		loopThread(0, 0x10000, 8, 3),
		loopThread(1, 0x20000, 8, 3),
	}
	m := New(Config{Cores: 2}, &fifoPolicy{}, nil, threads)
	r := m.Run()
	if len(r.PerCore) != 2 {
		t.Fatalf("PerCore has %d entries", len(r.PerCore))
	}
	var sum uint64
	for _, c := range r.PerCore {
		sum += c.Instructions
	}
	if sum != r.Instructions {
		t.Fatalf("per-core instructions sum %d != total %d", sum, r.Instructions)
	}
	if li := loadImbalance(r); li < 1 {
		t.Fatalf("load imbalance = %f < 1", li)
	}
}

// loadImbalance returns max/mean instructions across cores (1 = perfectly
// balanced); 0 for an idle machine.
func loadImbalance(r Result) float64 {
	var max, sum float64
	for _, c := range r.PerCore {
		v := float64(c.Instructions)
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(r.PerCore)))
}

func TestEventLog(t *testing.T) {
	threads := []trace.Thread{loopThread(0, 0x10000, 64, 4)}
	p := &fifoPolicy{migrateAfter: 500}
	m := New(Config{Cores: 4, LogEvents: true}, p, nil, threads)
	r := m.Run()
	if len(r.Events) == 0 {
		t.Fatal("no events logged")
	}
	if uint64(len(r.Events)) != r.Migrations+r.ContextSwitches {
		t.Fatalf("%d events != %d migrations + %d switches",
			len(r.Events), r.Migrations, r.ContextSwitches)
	}
	last := -1.0
	for _, e := range r.Events {
		if e.From == e.To && !e.Switch {
			t.Fatalf("self-migration event %+v", e)
		}
		if e.Cycle < last {
			// Events come from different cores, so strict global order is
			// not guaranteed; but per the single-thread setup here they
			// must be monotone.
			t.Fatalf("events out of order: %f after %f", e.Cycle, last)
		}
		last = e.Cycle
	}
}

func TestEventLogDisabledByDefault(t *testing.T) {
	threads := []trace.Thread{loopThread(0, 0x10000, 64, 4)}
	m := New(Config{Cores: 4}, &fifoPolicy{migrateAfter: 500}, nil, threads)
	r := m.Run()
	if r.Events != nil {
		t.Fatal("events logged without LogEvents")
	}
}

func TestTransactionLatencies(t *testing.T) {
	threads := []trace.Thread{
		loopThread(0, 0x10000, 8, 2),
		loopThread(1, 0x20000, 64, 4),
	}
	m := New(Config{Cores: 1}, &fifoPolicy{}, nil, threads)
	r := m.Run()
	if len(r.Latencies) != 2 {
		t.Fatalf("got %d latencies", len(r.Latencies))
	}
	if r.Latencies[0] > r.Latencies[1] {
		t.Fatal("latencies not sorted")
	}
	if r.LatencyPercentile(0) != r.Latencies[0] || r.LatencyPercentile(100) != r.Latencies[1] {
		t.Fatal("percentile extremes wrong")
	}
	if r.LatencyPercentile(50) <= 0 {
		t.Fatal("median not positive")
	}
	if (Result{}).LatencyPercentile(50) != 0 {
		t.Fatal("empty percentile not 0")
	}
}
