package slicc

import (
	"testing"
	"testing/quick"

	"slicc/internal/sched"
	"slicc/internal/sim"
	"slicc/internal/workload"
)

func TestVariantString(t *testing.T) {
	if Oblivious.String() != "SLICC" || SW.String() != "SLICC-SW" || Pp.String() != "SLICC-Pp" {
		t.Fatal("variant names wrong")
	}
	if Variant(9).String() != "Variant(9)" {
		t.Fatal("out-of-range variant name")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.FillUpT != 256 || cfg.MatchedT != 4 || cfg.MSVWindow != 100 ||
		cfg.BloomBits != 2048 || cfg.PoolFactor != 2 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.DilutionT != 0 {
		t.Fatal("DilutionT must not default (0 is the disabled setting)")
	}
	if DefaultConfig(SW).DilutionT != 10 {
		t.Fatal("DefaultConfig must use the paper's dilution_t = 10")
	}
}

// --- agent unit tests --------------------------------------------------------

func TestAgentMSVWindow(t *testing.T) {
	a := newAgent(Config{MSVWindow: 4, MatchedT: 2}.WithDefaults())
	a.pushMSV(true)
	a.pushMSV(true)
	a.pushMSV(false)
	a.pushMSV(false)
	if a.msvOnes != 2 {
		t.Fatalf("ones = %d, want 2", a.msvOnes)
	}
	// Window slides: the two leading misses fall out.
	a.pushMSV(false)
	a.pushMSV(false)
	if a.msvOnes != 0 {
		t.Fatalf("ones = %d after slide, want 0", a.msvOnes)
	}
}

func TestAgentMTQAnd(t *testing.T) {
	a := newAgent(Config{MSVWindow: 4, MatchedT: 3}.WithDefaults())
	if a.mtqAND() != 0 {
		t.Fatal("empty MTQ must AND to 0")
	}
	a.pushMTQ(0b0110)
	a.pushMTQ(0b0111)
	a.pushMTQ(0b1110)
	if got := a.mtqAND(); got != 0b0110 {
		t.Fatalf("AND = %b, want 0110", got)
	}
	// FIFO overwrite: pushing a 4th entry replaces the oldest.
	a.pushMTQ(0b0010)
	if got := a.mtqAND(); got != 0b0010 {
		t.Fatalf("AND after wrap = %b, want 0010", got)
	}
	if a.mtqLen != 3 {
		t.Fatalf("mtqLen = %d, want 3 (capacity)", a.mtqLen)
	}
}

func TestAgentResets(t *testing.T) {
	a := newAgent(Config{MSVWindow: 8, MatchedT: 2}.WithDefaults())
	a.mc = 200
	a.full = true
	a.pushMSV(true)
	a.pushMTQ(1)
	a.resetThreadState()
	if a.msvOnes != 0 || a.mtqLen != 0 {
		t.Fatal("resetThreadState incomplete")
	}
	if !a.full {
		t.Fatal("resetThreadState must not clear fill-up state")
	}
	a.resetAll()
	if a.full || a.mc != 0 {
		t.Fatal("resetAll incomplete")
	}
}

// Property: msvOnes always equals the number of true bits in the window.
func TestPropMSVConsistent(t *testing.T) {
	f := func(bits []bool) bool {
		a := newAgent(Config{MSVWindow: 16, MatchedT: 2}.WithDefaults())
		window := make([]bool, 0, 16)
		for _, b := range bits {
			a.pushMSV(b)
			window = append(window, b)
			if len(window) > 16 {
				window = window[1:]
			}
			ones := 0
			for _, w := range window {
				if w {
					ones++
				}
			}
			if ones != a.msvOnes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// --- team scheduler ----------------------------------------------------------

func mkThreads(types []int) []*sim.ThreadState {
	ts := make([]*sim.ThreadState, len(types))
	for i, ty := range types {
		ts[i] = &sim.ThreadState{ID: i, Type: ty}
	}
	return ts
}

func TestTeamFormationSizes(t *testing.T) {
	// 8 workers: large >= 12, medium 4..11, small < 4 (strays).
	types := make([]int, 0, 40)
	for i := 0; i < 20; i++ {
		types = append(types, 0) // large team capped at 16, then a team of 4
	}
	for i := 0; i < 6; i++ {
		types = append(types, 1) // medium team
	}
	for i := 0; i < 2; i++ {
		types = append(types, 2) // strays
	}
	ts := newTeamScheduler([]int{0, 1, 2, 3, 4, 5, 6, 7}, mkThreads(types))
	if len(ts.strayQ) != 2 {
		t.Fatalf("strays = %d, want 2", len(ts.strayQ))
	}
	if got := ts.strayFraction(); got < 0.07 || got > 0.08 {
		t.Fatalf("strayFraction = %f", got)
	}
	if len(ts.pendingTeams) != 3 {
		t.Fatalf("teams = %d, want 3 (16+4 of type0, 6 of type1)", len(ts.pendingTeams))
	}
	if ts.pendingTeams[0].total != 16 {
		t.Fatalf("first team size = %d, want 16", ts.pendingTeams[0].total)
	}
}

func TestTeamSchedulerAdmission(t *testing.T) {
	types := make([]int, 16)
	for i := 8; i < 16; i++ {
		types[i] = 1
	}
	workers := []int{0, 1, 2, 3, 4, 5, 6, 7}
	ts := newTeamScheduler(workers, mkThreads(types))
	// Two medium teams of 8: each gets half the cores.
	got := map[int]int{} // type -> admissions
	for _, c := range workers {
		if th := ts.next(c); th != nil {
			got[th.Type]++
		}
	}
	if got[0] == 0 || got[1] == 0 {
		t.Fatalf("admissions by type = %v; both medium teams should be co-scheduled", got)
	}
}

func TestTeamCompletionDetection(t *testing.T) {
	types := []int{0, 0, 0, 0, 0, 0, 0, 0}
	threads := mkThreads(types)
	ts := newTeamScheduler([]int{0, 1, 2, 3}, threads)
	for i, th := range threads {
		done := ts.finish(th)
		if (i == len(threads)-1) != done {
			t.Fatalf("finish(%d) = %v", i, done)
		}
	}
}

func TestClassify(t *testing.T) {
	n := 16
	cases := []struct {
		size int
		want sizeClass
	}{
		{1, smallTeam}, {7, smallTeam}, {8, mediumTeam},
		{16, mediumTeam}, {23, mediumTeam}, {24, largeTeam}, {32, largeTeam},
	}
	for _, c := range cases {
		if got := classify(c.size, n); got != c.want {
			t.Errorf("classify(%d) = %v, want %v", c.size, got, c.want)
		}
	}
}

// --- hardware cost (Table 3) -------------------------------------------------

func TestHardwareCostTable3(t *testing.T) {
	c := HardwareCost(DefaultConfig(SW), 16)
	if c.MTQ != 60 {
		t.Fatalf("MTQ = %d bits, want 60", c.MTQ)
	}
	if c.MSV != 100 {
		t.Fatalf("MSV = %d bits, want 100", c.MSV)
	}
	if c.BloomSignature != 2048 {
		t.Fatalf("bloom = %d bits, want 2048", c.BloomSignature)
	}
	if c.CacheMonitor != 2208 {
		t.Fatalf("cache monitor = %d bits, want 2208", c.CacheMonitor)
	}
	if c.ThreadQueue != 1920 {
		t.Fatalf("thread queue = %d bits, want 1920", c.ThreadQueue)
	}
	if c.TeamTable != 3600 {
		t.Fatalf("team table = %d bits, want 3600", c.TeamTable)
	}
	if c.Total != 7728 || c.TotalBytes() != 966 {
		t.Fatalf("total = %d bits (%d bytes), want 7728 (966)", c.Total, c.TotalBytes())
	}
}

func TestHardwareCostOblivious(t *testing.T) {
	c := HardwareCost(DefaultConfig(Oblivious), 16)
	if c.TeamTable != 0 {
		t.Fatal("oblivious SLICC must not pay for the team table")
	}
	if c.Total != 7728-3600 {
		t.Fatalf("total = %d", c.Total)
	}
}

// --- end-to-end behaviour ----------------------------------------------------

func runTPCC(t *testing.T, policy sim.Policy) sim.Result {
	t.Helper()
	w := workload.New(workload.Config{Kind: workload.TPCC1, Threads: 48, Seed: 21, Scale: 0.4})
	m := sim.New(sim.Config{Cores: 16}, policy, nil, w.Threads())
	r := m.Run()
	if r.ThreadsFinished != 48 {
		t.Fatalf("%s finished %d/48 threads", policy.Name(), r.ThreadsFinished)
	}
	return r
}

// The headline result in miniature: SLICC-SW substantially reduces I-MPKI
// and improves performance over the baseline on TPC-C.
func TestSLICCSWBeatsBaselineOnTPCC(t *testing.T) {
	base := runTPCC(t, sched.NewBaseline())
	sw := runTPCC(t, New(DefaultConfig(SW)))

	if sw.Migrations == 0 {
		t.Fatal("SLICC-SW never migrated")
	}
	reduction := 1 - sw.IMPKI()/base.IMPKI()
	if reduction < 0.25 {
		t.Fatalf("I-MPKI reduction %.2f too small (base %.1f, slicc %.1f)",
			reduction, base.IMPKI(), sw.IMPKI())
	}
	if speed := sw.SpeedupOver(base); speed < 1.1 {
		t.Fatalf("speedup %.3f < 1.1 (base %.0f cycles, slicc %.0f)",
			speed, base.Cycles, sw.Cycles)
	}
	if sw.DMPKI() < base.DMPKI() {
		t.Logf("note: D-MPKI decreased (%.2f -> %.2f); paper expects a small increase",
			base.DMPKI(), sw.DMPKI())
	}
}

func TestObliviousSLICCAlsoHelps(t *testing.T) {
	base := runTPCC(t, sched.NewBaseline())
	ob := runTPCC(t, New(DefaultConfig(Oblivious)))
	if ob.Migrations == 0 {
		t.Fatal("oblivious SLICC never migrated")
	}
	if ob.IMPKI() >= base.IMPKI() {
		t.Fatalf("oblivious SLICC I-MPKI %.1f not below baseline %.1f", ob.IMPKI(), base.IMPKI())
	}
}

// MapReduce robustness (Section 5.6): SLICC must not hurt a workload whose
// footprint fits in one cache.
func TestSLICCRobustOnMapReduce(t *testing.T) {
	w := workload.New(workload.Config{Kind: workload.MapReduce, Threads: 60, Seed: 5, Scale: 0.3})
	base := sim.New(sim.Config{Cores: 16}, sched.NewBaseline(), nil, w.Threads()).Run()
	sw := sim.New(sim.Config{Cores: 16}, New(DefaultConfig(SW)), nil, w.Threads()).Run()
	if ratio := sw.Cycles / base.Cycles; ratio > 1.05 {
		t.Fatalf("SLICC slowed MapReduce by %.1f%%", (ratio-1)*100)
	}
}

func TestSearchBroadcastsCounted(t *testing.T) {
	sw := runTPCC(t, New(DefaultConfig(SW)))
	if sw.Noc.SearchBroadcasts == 0 {
		t.Fatal("no search broadcasts recorded")
	}
	if sw.BPKI() <= 0 {
		t.Fatal("BPKI not positive")
	}
}

func TestZeroOverheadSearchSkipsBroadcasts(t *testing.T) {
	cfg := DefaultConfig(SW)
	cfg.CountSearchBroadcasts = false
	r := runTPCC(t, New(cfg))
	if r.Noc.SearchBroadcasts != 0 {
		t.Fatal("broadcasts recorded despite zero-overhead search")
	}
}

func TestPpDedicatesScoutCore(t *testing.T) {
	w := workload.New(workload.Config{Kind: workload.TPCC1, Threads: 32, Seed: 9, Scale: 0.3})
	p := New(DefaultConfig(Pp))
	m := sim.New(sim.Config{Cores: 16}, p, nil, w.Threads())
	r := m.Run()
	if r.ThreadsFinished != 32 {
		t.Fatalf("finished %d/32", r.ThreadsFinished)
	}
	if m.L1I(0).Stats().Accesses != 0 {
		t.Fatal("scout core executed transaction instructions")
	}
}

func TestStrayFraction(t *testing.T) {
	w := workload.New(workload.Config{Kind: workload.TPCC1, Threads: 96, Seed: 33, Scale: 0.2})
	p := New(DefaultConfig(SW))
	m := sim.New(sim.Config{Cores: 16}, p, nil, w.Threads())
	m.Run()
	sf := p.StrayFraction()
	if sf <= 0 || sf > 0.4 {
		t.Fatalf("TPC-C stray fraction = %.3f; expected a modest share", sf)
	}
}

func TestExactSearchWorks(t *testing.T) {
	cfg := DefaultConfig(SW)
	cfg.ExactSearch = true
	r := runTPCC(t, New(cfg))
	if r.Migrations == 0 {
		t.Fatal("no migrations under exact search")
	}
}

func TestSearchStatsAccounted(t *testing.T) {
	p := New(DefaultConfig(SW))
	runTPCC(t, p)
	searches, matched, idle, stayed := p.SearchStats()
	if searches == 0 {
		t.Fatal("no searches")
	}
	if matched+idle+stayed != searches {
		t.Fatalf("outcome split %d+%d+%d != %d searches", matched, idle, stayed, searches)
	}
}

// StrayFraction reports the fraction of threads classified stray (0 for
// the oblivious variant, which has no teams).
func (p *Policy) StrayFraction() float64 {
	if p.teams == nil {
		return 0
	}
	return p.teams.strayFraction()
}

// strayFraction reports the share of threads classified stray.
func (ts *teamScheduler) strayFraction() float64 {
	if ts.total == 0 {
		return 0
	}
	return float64(ts.strayCount) / float64(ts.total)
}
