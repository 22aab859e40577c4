package runner

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"slicc/internal/sim"
	islicc "slicc/internal/slicc"
	"slicc/internal/store"
	"slicc/internal/trace"
	"slicc/internal/workload"
)

func TestJobKeyStable(t *testing.T) {
	explicit := tinyJob()
	explicit.Machine = explicit.Machine.WithDefaults()
	defaulted := tinyJob()
	defaulted.Machine = sim.Config{}
	if JobKey(explicit) != JobKey(defaulted) {
		t.Fatal("defaulted and explicit spellings of one job keyed differently")
	}
	if len(JobKey(explicit)) != 64 {
		t.Fatalf("key %q is not hex sha256", JobKey(explicit))
	}

	other := tinyJob()
	other.Policy = PolicySpec{Kind: SLICC, SLICC: islicc.DefaultConfig(islicc.SW)}
	if JobKey(other) == JobKey(explicit) {
		t.Fatal("distinct jobs share a key")
	}
	tweaked := tinyJob()
	tweaked.Workload.Seed++
	if JobKey(tweaked) == JobKey(explicit) {
		t.Fatal("seed change did not change the key")
	}
}

func TestJobKeyIgnoresTracePathKeysDigest(t *testing.T) {
	a := Job{Workload: workload.Config{TracePath: "/tmp/a.trace", TraceDigest: "d1"}}
	b := Job{Workload: workload.Config{TracePath: "/other/name.trace", TraceDigest: "d1"}}
	c := Job{Workload: workload.Config{TracePath: "/tmp/a.trace", TraceDigest: "d2"}}
	if JobKey(a) != JobKey(b) {
		t.Fatal("same digest under different paths keyed differently")
	}
	if JobKey(a) == JobKey(c) {
		t.Fatal("different digests share a key")
	}
}

// openStore opens a result store rooted in a test temp dir.
func openStore(t testing.TB, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreMemoPersistsAcrossPools(t *testing.T) {
	dir := t.TempDir()

	jobs := []Job{
		tinyJob(),
		{Workload: tinyWorkload(), Machine: sim.Config{Cores: 16, TrackReuse: true, LogEvents: true},
			Policy: PolicySpec{Kind: SLICC, SLICC: islicc.DefaultConfig(islicc.SW)}},
	}

	cold := New(Options{Workers: 2, Memo: NewStoreMemo(openStore(t, dir))})
	rs1, err := cold.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Stats(); s.JobsExecuted != 2 || s.StoreHits != 0 || s.StorePuts != 2 {
		t.Fatalf("cold stats = %+v, want 2 executed / 0 store hits / 2 puts", s)
	}

	// A fresh pool over a fresh store handle models a new process: every
	// job must come back from disk, bit-identical, with zero executions.
	warm := New(Options{Workers: 2, Memo: NewStoreMemo(openStore(t, dir))})
	rs2, err := warm.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.JobsExecuted != 0 || s.StoreHits != 2 {
		t.Fatalf("warm stats = %+v, want 0 executed / 2 store hits", s)
	}
	for i := range rs1 {
		a, b := rs1[i], rs2[i]
		a.Err, b.Err = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("job %d: persisted result differs from executed one:\n%+v\nvs\n%+v", i, a, b)
		}
	}
	if len(rs2[1].Sim.Events) == 0 || rs2[1].ReuseGlobal == (sim.ReuseBreakdown{}) {
		t.Fatal("persisted result lost events or reuse breakdown")
	}
}

func TestStoreMemoUnderInFlightDedup(t *testing.T) {
	// Duplicate jobs in one batch must claim once, so the store records
	// one entry and the duplicates count as dedup hits, not store hits.
	p := New(Options{Workers: 4, Memo: NewStoreMemo(openStore(t, t.TempDir()))})
	rs, err := p.Run(context.Background(), []Job{tinyJob(), tinyJob(), tinyJob()})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Sim.Cycles != rs[2].Sim.Cycles {
		t.Fatal("duplicates disagree")
	}
	s := p.Stats()
	if s.JobsExecuted != 1 || s.DedupHits != 2 || s.StoreHits != 0 || s.StorePuts != 1 {
		t.Fatalf("stats = %+v, want 1 executed / 2 dedup / 0 store hits / 1 put", s)
	}
}

func TestStoreMemoFailedJobsNotPersisted(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	p := New(Options{Workers: 1, Memo: NewStoreMemo(st)})
	missing := Job{Workload: workload.Config{TracePath: filepath.Join(t.TempDir(), "absent.trace")}}
	if _, err := p.Run(context.Background(), []Job{missing}); err == nil {
		t.Fatal("expected error for missing trace")
	}
	sst, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sst.Entries != 0 {
		t.Fatalf("failed job persisted %d store entries", sst.Entries)
	}
}

func TestStoreMemoCorruptEntryReexecutes(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	p1 := New(Options{Workers: 1, Memo: NewStoreMemo(st)})
	if _, err := p1.Run(context.Background(), []Job{tinyJob()}); err != nil {
		t.Fatal(err)
	}
	// Truncate every entry: the warm pool must fall back to execution.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if err := os.Truncate(filepath.Join(dir, de.Name()), 10); err != nil {
			t.Fatal(err)
		}
	}
	p2 := New(Options{Workers: 1, Memo: NewStoreMemo(openStore(t, dir))})
	if _, err := p2.Run(context.Background(), []Job{tinyJob()}); err != nil {
		t.Fatal(err)
	}
	if s := p2.Stats(); s.JobsExecuted != 1 || s.StoreHits != 0 {
		t.Fatalf("stats = %+v, want re-execution after corruption", s)
	}
}

// TestStoreMemoTraceJob: trace-driven jobs persist under their content
// digest, so a renamed container still hits the store from another pool.
func TestStoreMemoTraceJob(t *testing.T) {
	dir := t.TempDir()
	w := workload.New(tinyWorkload())
	path := filepath.Join(t.TempDir(), "wl.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteWorkload(f, w.Name, w.Threads()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	job := Job{Workload: workload.Config{TracePath: path}, Machine: sim.Config{Cores: 16}}
	p1 := New(Options{Workers: 1, Memo: NewStoreMemo(openStore(t, dir))})
	r1, err := p1.Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}

	renamed := filepath.Join(filepath.Dir(path), "other-name.trace")
	if err := os.Rename(path, renamed); err != nil {
		t.Fatal(err)
	}
	job2 := Job{Workload: workload.Config{TracePath: renamed}, Machine: sim.Config{Cores: 16}}
	p2 := New(Options{Workers: 1, Memo: NewStoreMemo(openStore(t, dir))})
	r2, err := p2.Run(context.Background(), []Job{job2})
	if err != nil {
		t.Fatal(err)
	}
	if s := p2.Stats(); s.StoreHits != 1 || s.JobsExecuted != 0 {
		t.Fatalf("stats = %+v, want renamed trace served from store", s)
	}
	if r1[0].Sim.Cycles != r2[0].Sim.Cycles {
		t.Fatal("trace store hit diverged")
	}
}

func TestStoreMemoMissesNotCached(t *testing.T) {
	// Two memos over one directory model two processes. A miss in A must
	// not be cached: once B records the key, A sees it.
	dir := t.TempDir()
	a := NewStoreMemo(openStore(t, dir))
	b := NewStoreMemo(openStore(t, dir))
	if _, ok := a.Get("k"); ok {
		t.Fatal("phantom hit")
	}
	b.Put("k", Result{Sim: sim.Result{Cycles: 9}})
	if got, ok := a.Get("k"); !ok || got.Sim.Cycles != 9 {
		t.Fatalf("foreign Put invisible after earlier miss: ok=%v", ok)
	}
}

func TestStoreMemoFailedResultNotCached(t *testing.T) {
	s := openStore(t, t.TempDir())
	m := NewStoreMemo(s)
	m.Put("k", Result{Err: context.Canceled})
	if _, ok := m.Get("k"); ok {
		t.Fatal("failed result served")
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 0 {
		t.Fatal("failed result persisted")
	}
}

func TestPoolCloseReleasesTraceContainers(t *testing.T) {
	w := workload.New(tinyWorkload())
	path := filepath.Join(t.TempDir(), "wl.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteWorkload(f, w.Name, w.Threads()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	p := New(Options{Workers: 1})
	job := Job{Workload: workload.Config{TracePath: path}, Machine: sim.Config{Cores: 16}}
	if _, err := p.Run(context.Background(), []Job{job}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// The workload cache was flushed; a new run of a *different* machine
	// over the same trace must reopen the container and still work.
	job2 := job
	job2.Machine.L1I.SizeBytes = 64 * 1024
	if _, err := p.Run(context.Background(), []Job{job2}); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.WorkloadsBuilt != 2 {
		t.Fatalf("workloads built = %d, want rebuild after Close", s.WorkloadsBuilt)
	}
	// Close is idempotent and safe with a freshly refilled cache.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
