package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"slicc/internal/runner"
	"slicc/internal/store"
)

// tinySpec is a fast 2-workload x 2-policy sweep for execution tests.
func tinySpec() Spec {
	return Spec{
		Name:      "tiny",
		Workloads: []string{"tpcc1", "phased"},
		Policies:  []string{"base", "slicc-sw"},
		Threads:   Ints(6),
		Scales:    Floats(0.05),
	}
}

func TestAxisJSON(t *testing.T) {
	var a IntAxis
	if err := json.Unmarshal([]byte(`[128, 256]`), &a); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Values(), []int{128, 256}) {
		t.Fatalf("list axis = %v", a.Values())
	}
	if err := json.Unmarshal([]byte(`{"from":2,"to":8,"step":2}`), &a); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Values(), []int{2, 4, 6, 8}) {
		t.Fatalf("range axis = %v", a.Values())
	}
	if err := json.Unmarshal([]byte(`16`), &a); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Values(), []int{16}) {
		t.Fatalf("scalar axis = %v", a.Values())
	}
	// Canonical marshal is the explicit list, so ranges and lists hash
	// identically in Key.
	b, err := json.Marshal(a)
	if err != nil || string(b) != "[16]" {
		t.Fatalf("marshal = %s, %v", b, err)
	}
	if err := json.Unmarshal([]byte(`{"from":8,"to":2,"step":2}`), &a); err == nil {
		t.Fatal("inverted range accepted")
	}
	if err := json.Unmarshal([]byte(`{"from":0,"to":1000000,"step":1}`), &a); err == nil {
		t.Fatal("unbounded range accepted")
	}

	var f FloatAxis
	if err := json.Unmarshal([]byte(`{"from":0.5,"to":1.5,"step":0.5}`), &f); err != nil {
		t.Fatal(err)
	}
	if got := f.Values(); len(got) != 3 || got[0] != 0.5 || got[2] != 1.5 {
		t.Fatalf("float range = %v", got)
	}
	// The inclusive endpoint must survive float drift (0.1*3 > 0.3) and
	// land exactly on "to", not on an accumulated approximation.
	if err := json.Unmarshal([]byte(`{"from":0.1,"to":0.3,"step":0.1}`), &f); err != nil {
		t.Fatal(err)
	}
	if got := f.Values(); len(got) != 3 || got[2] != 0.3 {
		t.Fatalf("drifting float range = %v, want [0.1 0.2 0.3]", got)
	}
}

func TestNormalizeValidates(t *testing.T) {
	for _, bad := range []Spec{
		{Workloads: []string{"nosuch"}},
		{Policies: []string{"nosuch"}},
		{Baseline: "nosuch"},
		{Objective: "nosuch"},
		{Preset: "nosuch"},
		{Cores: Ints(0)},
		{Cores: Ints(-4)},
		{L1IKB: Ints(0)},
		{Threads: Ints(-1)},
		{DilutionT: Ints(-2)},
	} {
		if _, err := bad.Normalized(); err == nil {
			t.Errorf("spec %+v accepted", bad)
		}
	}
	// The cell limit must trip before expansion allocates.
	big := Spec{
		Workloads: []string{"tpcc1"},
		Policies:  []string{"slicc-sw"},
		FillUpT:   Ints(make([]int, 100)...),
		MatchedT:  Ints(make([]int, 100)...),
	}
	if _, err := big.Normalized(); err == nil || !strings.Contains(err.Error(), "cell") {
		t.Fatalf("oversized sweep error = %v", err)
	}
	// The cell count must saturate, not wrap: six 4096-value axes multiply
	// to 2^72, which would alias to 0 in 64-bit arithmetic and slip past
	// the limit (a remotely-triggerable unbounded expansion).
	wide := func() IntAxis { return Ints(make([]int, maxAxisValues)...) }
	huge := Spec{
		Threads: wide(), Seeds: wide(),
		Cores: Ints(repeatInt(16, maxAxisValues)...),
		L1IKB: Ints(repeatInt(32, maxAxisValues)...),
		L1DKB: Ints(repeatInt(32, maxAxisValues)...),
		Scales: func() FloatAxis {
			vs := make([]float64, maxAxisValues)
			for i := range vs {
				vs[i] = 1
			}
			return Floats(vs...)
		}(),
	}
	if _, err := huge.Normalized(); err == nil || !strings.Contains(err.Error(), "cell") {
		t.Fatalf("overflowing sweep error = %v", err)
	}
}

// repeatInt returns n copies of v.
func repeatInt(v, n int) []int {
	vs := make([]int, n)
	for i := range vs {
		vs[i] = v
	}
	return vs
}

// TestExpandDeterminism is the sweep acceptance contract: the same spec —
// whether spelled directly, defaulted, or round-tripped through JSON —
// expands to the identical ordered job-key list.
func TestExpandDeterminism(t *testing.T) {
	spec := Spec{
		Workloads: []string{"tpcc1", "tpce"},
		Policies:  []string{"base", "slicc-sw"},
		FillUpT:   Ints(128, 256),
		MatchedT:  Ints(2, 4),
	}
	keysOf := func(s Spec) []string {
		n, err := s.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		ex, err := n.expand()
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(ex.jobs)+len(ex.baseJobs))
		for _, j := range append(append([]runner.Job{}, ex.jobs...), ex.baseJobs...) {
			keys = append(keys, runner.JobKey(j))
		}
		return keys
	}
	a := keysOf(spec)
	b := keysOf(spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two expansions of one spec differ")
	}
	// JSON round trip.
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var rt Spec
	if err := json.Unmarshal(data, &rt); err != nil {
		t.Fatal(err)
	}
	if c := keysOf(rt); !reflect.DeepEqual(a, c) {
		t.Fatal("JSON round-tripped spec expands differently")
	}
	// 2 workloads x (1 base + slicc-sw x 2x2 thresholds) = 10 cells.
	n, err := spec.CellCount()
	if err != nil || n != 10 {
		t.Fatalf("CellCount = %d, %v; want 10", n, err)
	}
}

func TestSpecKey(t *testing.T) {
	// Defaulted and explicit spellings share a key; Name is cosmetic.
	a, err := Spec{Name: "x"}.Key()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Spec{Workloads: []string{"tpcc1"}, Policies: []string{"slicc-sw"}, Seeds: Ints(1)}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if a != b || len(a) != 64 {
		t.Fatalf("keys differ for one sweep: %s vs %s", a, b)
	}
	c, err := Spec{Workloads: []string{"tpce"}}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different sweeps share a key")
	}
}

func TestPresets(t *testing.T) {
	if len(Presets()) == 0 {
		t.Fatal("no presets")
	}
	for _, name := range Presets() {
		s, err := Spec{Preset: name}.Normalized()
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if n := s.cellCount(); n < 2 {
			t.Fatalf("preset %s expands to %d cells", name, n)
		}
	}
	// The Figure 7 preset covers the paper's full 2x4x5 grid.
	n, err := Spec{Preset: "fig7-thresholds"}.CellCount()
	if err != nil || n != 40 {
		t.Fatalf("fig7-thresholds cells = %d, %v; want 40", n, err)
	}
	// Explicit fields override the preset.
	s, err := Spec{Preset: "fig7-thresholds", Threads: Ints(40), FillUpT: Ints(128)}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Threads.Values(); len(got) != 1 || got[0] != 40 {
		t.Fatalf("threads override lost: %v", got)
	}
	if got := s.FillUpT.Values(); len(got) != 1 || got[0] != 128 {
		t.Fatalf("fillup override lost: %v", got)
	}
	if s.ExactSearch == nil || !*s.ExactSearch {
		t.Fatal("preset exact_search not inherited")
	}
	// An explicit false must override the preset's true (and produce a
	// different content key than the idealized-search study).
	over, err := Spec{Preset: "fig7-thresholds", ExactSearch: Bool(false)}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if *over.ExactSearch {
		t.Fatal("explicit exact_search=false lost to the preset")
	}
	k1, err := Spec{Preset: "fig7-thresholds"}.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Spec{Preset: "fig7-thresholds", ExactSearch: Bool(false)}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("idealized and charged-search studies share a key")
	}
}

func TestRunAggregates(t *testing.T) {
	pool := runner.New(runner.Options{Workers: 2})
	res, err := Run(context.Background(), pool, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 || len(res.Baselines) != 2 {
		t.Fatalf("cells %d baselines %d", len(res.Cells), len(res.Baselines))
	}
	for i, c := range res.Cells {
		if c.Instructions == 0 || c.Cycles == 0 {
			t.Fatalf("cell %d empty: %+v", i, c)
		}
		if c.Policy == "base" && (c.Speedup < 0.999 || c.Speedup > 1.001) {
			t.Fatalf("baseline-policy cell speedup %.3f != 1", c.Speedup)
		}
		if c.Speedup <= 0 {
			t.Fatalf("cell %d has no speedup", i)
		}
	}
	best := res.Best()
	if best == nil {
		t.Fatal("no best cell")
	}
	for _, c := range res.Cells {
		if c.Speedup > best.Speedup {
			t.Fatalf("best %.3f not maximal (found %.3f)", best.Speedup, c.Speedup)
		}
	}
	// The base-policy cells dedup against the baseline reference jobs:
	// 4 cells + 2 baselines = 6 requested, but only 4 distinct simulations.
	if st := pool.Stats(); st.JobsExecuted != 4 || st.DedupHits != 2 {
		t.Fatalf("executed %d deduped %d; want 4/2", st.JobsExecuted, st.DedupHits)
	}

	// CSV: header + one line per cell.
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(res.Cells) {
		t.Fatalf("CSV has %d lines, want %d", len(lines), 1+len(res.Cells))
	}
	if !strings.HasPrefix(lines[0], "workload,threads,seed,scale,cores") {
		t.Fatalf("CSV header %q", lines[0])
	}
	// Rows align with the header.
	if h, rows := res.Header(), res.Rows(); len(rows) != len(res.Cells) || len(rows[0]) != len(h) {
		t.Fatalf("table shape %dx%d vs header %d", len(rows), len(rows[0]), len(h))
	}
}

// TestBestIndex pins the objective rules Run and Assemble share: speedup
// is maximized and cycles minimized over positive values only, the miss
// rates are minimized over every cell, and ties keep the earlier cell.
func TestBestIndex(t *testing.T) {
	cells := []CellResult{
		{Cycles: 0, IMPKI: 3, DMPKI: 1, Speedup: 0},
		{Cycles: 900, IMPKI: 0, DMPKI: 2, Speedup: 1.5},
		{Cycles: 700, IMPKI: 0, DMPKI: 1, Speedup: 1.5},
		{Cycles: 700, IMPKI: 2, DMPKI: 4, Speedup: 1.2},
	}
	for obj, want := range map[string]int{"speedup": 1, "cycles": 2, "impki": 1, "dmpki": 0} {
		if got := bestIndex(obj, cells); got != want {
			t.Errorf("objective %s: best %d, want %d", obj, got, want)
		}
	}
	if got := bestIndex("speedup", cells[:1]); got != -1 {
		t.Errorf("no cell with a speedup: best %d, want -1", got)
	}
	if got := bestIndex("cycles", nil); got != -1 {
		t.Errorf("no cells: best %d, want -1", got)
	}
}

// TestRunDeterministicAcrossWorkers pins the worker-count independence of
// the whole aggregate (the byte-identical-output contract).
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	a, err := Run(context.Background(), runner.New(runner.Options{Workers: 1}), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), runner.New(runner.Options{Workers: 8}), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sweep results differ across worker counts")
	}
}

// TestStoreWarmedSweep is the acceptance check for store reuse: a second
// pool over the same store must serve the whole sweep from disk, executing
// zero simulations.
func TestStoreWarmedSweep(t *testing.T) {
	dir := t.TempDir()
	open := func() (*runner.Pool, *store.Store) {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return runner.New(runner.Options{Workers: 2, Memo: runner.NewStoreMemo(st)}), st
	}
	pool1, st1 := open()
	cold, err := Run(context.Background(), pool1, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := pool1.Stats(); st.JobsExecuted == 0 {
		t.Fatal("cold sweep executed nothing")
	}
	pool1.Close()
	st1.Close()

	pool2, st2 := open()
	defer st2.Close()
	warm, err := Run(context.Background(), pool2, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	if st := pool2.Stats(); st.JobsExecuted != 0 {
		t.Fatalf("warm sweep executed %d simulations, want 0", st.JobsExecuted)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm sweep result differs from cold run")
	}
}
