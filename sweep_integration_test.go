package slicc

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"slicc/internal/runner"
	"slicc/internal/sweep"
)

// TestSweepJobsMatchPublicConfig pins the lockstep between the sweep
// subsystem's token-to-job translation (sweep.Cell.Job) and the public
// slicc.Config's (Config.job): for every policy token and a spread of
// threshold spellings, both sides must produce the identical runner job —
// otherwise sweep cells and equivalent Config runs would stop sharing
// store entries. If this fails after adding a policy, mirror the change in
// internal/sweep's policyDefs. (ExactSearch is deliberately absent: the
// sweep's flag means Figure 7's exact-and-uncharged idealization, which
// public Params does not express; internal/sweep's
// TestFigurePresetsMatchFigures covers that mapping.)
func TestSweepJobsMatchPublicConfig(t *testing.T) {
	params := []Params{
		{},
		{FillUpT: 128, MatchedT: 2, DilutionT: 24},
		{DilutionT: -1},
	}
	for _, pol := range Policies() {
		for _, p := range params {
			cfg := Config{Benchmark: TPCE, Policy: pol, Threads: 12, Seed: 3, Scale: 0.4, SLICC: p}.withDefaults()
			cell := sweep.Cell{
				Workload: "tpce", Threads: 12, Seed: 3, Scale: 0.4,
				Cores: 16, L1IKB: 32, L1DKB: 32,
				Policy:  pol.Token(),
				FillUpT: p.FillUpT, MatchedT: p.MatchedT, DilutionT: p.DilutionT,
			}
			job, err := cell.Job()
			if err != nil {
				t.Fatalf("%v: %v", pol, err)
			}
			want, got := runner.JobKey(cfg.job()), runner.JobKey(job)
			if isSLICC := pol == SLICC || pol == SLICCPp || pol == SLICCSW; !isSLICC {
				// Thresholds only shape SLICC-family jobs; compare the
				// no-threshold spelling for the rest.
				plain := cell
				plain.FillUpT, plain.MatchedT, plain.DilutionT, plain.ExactSearch = 0, 0, 0, false
				pj, err := plain.Job()
				if err != nil {
					t.Fatal(err)
				}
				got = runner.JobKey(pj)
				base := cfg
				base.SLICC = Params{}
				want = runner.JobKey(base.job())
			}
			if want != got {
				t.Errorf("policy %v params %+v: sweep job key %s != public config job key %s", pol, p, got, want)
			}
		}
	}
}

// tinySweep is a fast multi-axis spec used across the sweep API tests.
func tinySweep() SweepSpec {
	return SweepSpec{
		Name:      "api-tiny",
		Workloads: []string{"tpcc1", "microservice"},
		Policies:  []string{"base", "slicc-sw"},
		Threads:   SweepInts(6),
		Scales:    SweepFloats(0.05),
	}
}

func TestEngineSweep(t *testing.T) {
	eng, err := NewEngine(EngineOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Sweep(context.Background(), tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("got %d cells", len(res.Cells))
	}
	if res.Best() == nil {
		t.Fatal("no best cell")
	}
	// The rendered table must line up with the result.
	tab := SweepTable(res)
	if len(tab.Rows) != len(res.Cells) || len(tab.Header) != len(tab.Rows[0]) {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Header))
	}
	if !strings.Contains(tab.Note, "best by speedup") {
		t.Fatalf("note %q lacks best-cell callout", tab.Note)
	}
	// Sweeps share the engine's memo: re-running the same sweep on the
	// same engine simulates nothing new.
	before := eng.Stats().SimsExecuted
	if _, err := eng.Sweep(context.Background(), tinySweep()); err != nil {
		t.Fatal(err)
	}
	if after := eng.Stats().SimsExecuted; after != before {
		t.Fatalf("repeat sweep executed %d extra simulations", after-before)
	}
	if _, err := eng.Sweep(context.Background(), SweepSpec{Workloads: []string{"nosuch"}}); err == nil {
		t.Fatal("invalid sweep accepted")
	}
}

// TestEngineSweepDeterministicAcrossWorkers pins the acceptance contract:
// the full result — cells, metrics, best selection, JSON bytes — is
// independent of the engine's worker count.
func TestEngineSweepDeterministicAcrossWorkers(t *testing.T) {
	skipShort(t)
	run := func(workers int) *SweepResult {
		eng, err := NewEngine(EngineOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		res, err := eng.Sweep(context.Background(), tinySweep())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sweep results differ across worker counts")
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("sweep JSON differs across worker counts")
	}
}

// TestEngineSweepStoreWarmed is the end-to-end acceptance check: a second
// engine over the same store re-renders the sweep executing 0 simulations.
func TestEngineSweepStoreWarmed(t *testing.T) {
	skipShort(t)
	dir := t.TempDir()
	run := func() (*SweepResult, EngineStats) {
		eng, err := NewEngine(EngineOptions{Workers: 2, StoreDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		res, err := eng.Sweep(context.Background(), tinySweep())
		if err != nil {
			t.Fatal(err)
		}
		return res, eng.Stats()
	}
	cold, coldStats := run()
	if coldStats.SimsExecuted == 0 {
		t.Fatal("cold sweep executed nothing")
	}
	warm, warmStats := run()
	if warmStats.SimsExecuted != 0 {
		t.Fatalf("store-warmed sweep executed %d simulations, want 0", warmStats.SimsExecuted)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("store-warmed sweep result differs from cold run")
	}
}

// TestStreamedSweepGeneratesEachStreamOnce pins the op-stream accounting
// end to end: a streamed sweep whose cells pair up on their workloads (the
// benchmark's tiny-spec shape) runs each thread's generator exactly once —
// passes == threads x distinct workloads — while a simulation submitted
// alone generates once and records nothing.
func TestStreamedSweepGeneratesEachStreamOnce(t *testing.T) {
	eng, err := NewEngine(EngineOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	spec := SweepSpec{
		Workloads: []string{"tpcc1", "skewed"},
		Policies:  []string{"base", "slicc-sw"},
		Threads:   SweepInts(4),
		Scales:    SweepFloats(0.05),
		Seeds:     SweepInts(11, 12, 13),
	}
	if _, err := eng.SweepStream(context.Background(), spec, nil); err != nil {
		t.Fatal(err)
	}
	const threads, workloads = 4, 2 * 3
	s := eng.Stats()
	if s.SimsExecuted != 2*workloads || s.OpStreamGeneratorPasses != threads*workloads || s.OpStreamsRecorded != threads*workloads {
		t.Fatalf("sweep of %d workloads x 2 policies: %d executed, %d generator passes, %d streams recorded; want %d, %d, %d",
			workloads, s.SimsExecuted, s.OpStreamGeneratorPasses, s.OpStreamsRecorded, 2*workloads, threads*workloads, threads*workloads)
	}

	lone, err := NewEngine(EngineOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lone.Close()
	if _, err := lone.Run(context.Background(), Config{Benchmark: TPCC1, Policy: SLICCSW, Threads: threads, Seed: 11, Scale: 0.05}); err != nil {
		t.Fatal(err)
	}
	if s := lone.Stats(); s.OpStreamGeneratorPasses != threads || s.OpStreamsRecorded != 0 {
		t.Fatalf("lone run: %d generator passes, %d streams recorded; want %d, 0", s.OpStreamGeneratorPasses, s.OpStreamsRecorded, threads)
	}
}
