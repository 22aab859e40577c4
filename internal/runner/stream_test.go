package runner

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slicc/internal/sim"
	islicc "slicc/internal/slicc"
	"slicc/internal/workload"
)

func TestRunEachMatchesRunAndReportsEveryJob(t *testing.T) {
	dir := t.TempDir()
	jobs := []Job{
		tinyJob(),
		{Workload: tinyWorkload(), Machine: sim.Config{Cores: 16},
			Policy: PolicySpec{Kind: SLICC, SLICC: islicc.DefaultConfig(islicc.SW)}},
		tinyJob(), // duplicate: dedups underneath, still gets its own callback
	}

	ref := New(Options{Workers: 2})
	want, err := ref.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	cold := New(Options{Workers: 2, Memo: NewStoreMemo(openStore(t, dir))})
	var mu sync.Mutex
	seen := make(map[int]int)
	hits := 0
	got, err := cold.RunEach(context.Background(), jobs, func(i int, res Result, storeHit bool) {
		mu.Lock()
		defer mu.Unlock()
		seen[i]++
		if storeHit {
			hits++
		}
		if res.Err != nil {
			t.Errorf("callback %d carried error %v", i, res.Err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RunEach results diverge from Run:\n%+v\nvs\n%+v", got, want)
	}
	if len(seen) != len(jobs) {
		t.Fatalf("callbacks for %d of %d jobs", len(seen), len(jobs))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("job %d completed %d times", i, n)
		}
	}
	if hits != 0 {
		t.Fatalf("cold run reported %d store hits", hits)
	}
	s := cold.Stats()
	if s.JobsRequested != 3 || s.JobsExecuted != 2 || s.DedupHits != 1 || s.StoreHits != 0 {
		t.Fatalf("cold stats = %+v, want 3 requested / 2 executed / 1 dedup / 0 store hits", s)
	}

	// A fresh pool over the same store models a resumed process: every
	// unique job replays from disk and the callback says so.
	warm := New(Options{Workers: 2, Memo: NewStoreMemo(openStore(t, dir))})
	hits = 0
	warmRes, err := warm.RunEach(context.Background(), jobs, func(i int, res Result, storeHit bool) {
		mu.Lock()
		defer mu.Unlock()
		if storeHit {
			hits++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmRes, want) {
		t.Fatal("warm RunEach results diverge")
	}
	// All three callbacks report store hits: the duplicate joins the
	// claimant's entry and observes the same store-served result.
	if hits != 3 {
		t.Fatalf("warm run reported %d store-hit callbacks, want 3", hits)
	}
	if s := warm.Stats(); s.JobsExecuted != 0 || s.StoreHits != 2 || s.DedupHits != 1 {
		t.Fatalf("warm stats = %+v, want 0 executed / 2 store hits / 1 dedup", s)
	}
}

func TestRunEachCancellation(t *testing.T) {
	p := New(Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	_, err := p.RunEach(ctx, []Job{tinyJob()}, func(int, Result, bool) { called = true })
	if err == nil {
		t.Fatal("cancelled RunEach returned nil error")
	}
	if called {
		t.Fatal("cancelled job produced a completion callback")
	}
	// The claim was released: a later RunEach must succeed.
	n := 0
	if _, err := p.RunEach(context.Background(), []Job{tinyJob()}, func(int, Result, bool) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("retry produced %d callbacks, want 1", n)
	}
}

// scriptMemo is a Memo whose answers a test scripts: it serves the results
// it holds and misses otherwise, recording every key it is asked for and
// calling hook, if set, before it answers.
type scriptMemo struct {
	hook func(key string)

	mu   sync.Mutex
	res  map[string]Result
	gets []string
}

func (m *scriptMemo) Get(key string) (Result, bool) {
	if m.hook != nil {
		m.hook(key)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gets = append(m.gets, key)
	r, ok := m.res[key]
	return r, ok
}

func (m *scriptMemo) Put(key string, res Result) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.res[key] = res
}

// synthJob is a job no test executes: its workload is distinct per seed,
// and a scriptMemo answers it.
func synthJob(seed int64, kind PolicyKind) Job {
	return Job{Workload: workload.Config{Kind: workload.TPCC1, Threads: 2, Seed: seed, Scale: 0.05},
		Policy: PolicySpec{Kind: kind}}
}

// hitsFor scripts a memo that serves every job in jobs, each with a result
// that names its seed and policy.
func hitsFor(jobs ...Job) *scriptMemo {
	m := &scriptMemo{res: make(map[string]Result)}
	for _, j := range jobs {
		m.res[JobKey(j)] = Result{BloomAccuracy: float64(j.Workload.Seed)*10 + float64(j.Policy.Kind)}
	}
	return m
}

// checkIdentity asserts the stats invariant.
func checkIdentity(t *testing.T, s Stats) {
	t.Helper()
	if s.JobsRequested != s.JobsExecuted+s.DedupHits+s.StoreHits+s.JobsRemote {
		t.Fatalf("stats %+v break JobsRequested == JobsExecuted + DedupHits + StoreHits + JobsRemote", s)
	}
}

// TestDispatchBoundsGoroutines: a call resolves its store hits on Workers
// dispatcher goroutines, not one goroutine per job.
func TestDispatchBoundsGoroutines(t *testing.T) {
	const workers, n = 4, 512
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = synthJob(int64(i), Baseline)
	}
	m := hitsFor(jobs...)
	var peak int
	m.hook = func(string) {
		g := runtime.NumGoroutine()
		m.mu.Lock()
		peak = max(peak, g)
		m.mu.Unlock()
	}
	p := New(Options{Workers: workers, Memo: m})
	base := runtime.NumGoroutine()
	got, err := p.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if peak > base+workers+2 {
		t.Fatalf("%d goroutines while resolving %d store hits on %d workers (%d before the call)", peak, n, workers, base)
	}
	for i, r := range got {
		if want := m.res[JobKey(jobs[i])]; r.BloomAccuracy != want.BloomAccuracy {
			t.Fatalf("result %d = %+v, want %+v", i, r, want)
		}
	}
	if s := p.Stats(); s.JobsRequested != n || s.StoreHits != n {
		t.Fatalf("stats %+v, want %d requested, all store hits", s, n)
	}
}

// TestDuplicateResolvesWithItsFirst: a duplicate at the last index is
// reported the moment its first occurrence resolves, not when a dispatcher
// reaches its index — here, behind a unique job a gated Memo holds.
func TestDuplicateResolvesWithItsFirst(t *testing.T) {
	first, held := synthJob(1, Baseline), synthJob(2, Baseline)
	jobs := []Job{first, held, synthJob(3, Baseline), first}
	m := hitsFor(jobs...)
	gate := make(chan struct{})
	heldKey := JobKey(held)
	m.hook = func(key string) {
		if key == heldKey {
			<-gate
		}
	}
	last := make(chan struct{})
	p := New(Options{Workers: 1, Memo: m})
	done := make(chan error, 1)
	go func() {
		_, err := p.RunEach(context.Background(), jobs, func(i int, _ Result, storeHit bool) {
			if i == len(jobs)-1 {
				if !storeHit {
					t.Error("duplicate of a store hit not reported as one")
				}
				close(last)
			}
		})
		done <- err
	}()
	select {
	case <-last:
	case <-time.After(time.Second):
		t.Error("duplicate's callback waited for a later job the Memo holds")
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.StoreHits != 3 || s.DedupHits != 1 {
		t.Fatalf("stats %+v, want 3 store hits / 1 dedup", s)
	}
}

// TestDispatchSpreadsWorkloadReplays: every workload's first job reaches
// the Memo before any workload's second, whatever the index order.
func TestDispatchSpreadsWorkloadReplays(t *testing.T) {
	var jobs []Job
	rank := make(map[string]int)
	for seed := int64(1); seed <= 8; seed++ {
		for r, kind := range []PolicyKind{Baseline, STEPS, NextLine} {
			j := synthJob(seed, kind)
			jobs = append(jobs, j)
			rank[JobKey(j)] = r
		}
	}
	m := hitsFor(jobs...)
	p := New(Options{Workers: 1, Memo: m})
	if _, err := p.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if len(m.gets) != len(jobs) {
		t.Fatalf("%d Memo lookups for %d unique jobs", len(m.gets), len(jobs))
	}
	for k := 1; k < len(m.gets); k++ {
		if rank[m.gets[k]] < rank[m.gets[k-1]] {
			t.Fatalf("lookup %d is a workload's job %d, after one's job %d", k, rank[m.gets[k]]+1, rank[m.gets[k-1]]+1)
		}
	}
}

// failRemote resolves jobs into a scriptMemo, except the key it fails.
type failRemote struct {
	m    *scriptMemo
	fail string
}

func (r failRemote) Execute(_ context.Context, key string, _ []byte) error {
	if key == r.fail {
		return errors.New("scripted remote failure")
	}
	r.m.Put(key, Result{BloomAccuracy: 1})
	return nil
}

// TestStatsIdentityWithDuplicatesFailuresAndCancellation: the stats
// invariant holds after a call with in-call duplicates, a failing job (and
// its duplicate), and after a call cancelled midway.
func TestStatsIdentityWithDuplicatesFailuresAndCancellation(t *testing.T) {
	hit, bad, remote := synthJob(1, Baseline), synthJob(2, Baseline), synthJob(3, Baseline)
	m := hitsFor(hit)
	p := New(Options{Workers: 2, Memo: m})
	var n atomic.Int32 // onDone may run on several goroutines at once
	_, err := p.RunEachVia(context.Background(), []Job{hit, bad, remote, hit, bad, remote},
		failRemote{m: m, fail: JobKey(bad)}, func(int, Result, bool) { n.Add(1) })
	if err == nil {
		t.Fatal("a failing job's call returned no error")
	}
	if n.Load() != 4 {
		t.Fatalf("%d callbacks, want 4 (the failing job and its duplicate get none)", n.Load())
	}
	s := p.Stats()
	if s.JobsRequested != 4 || s.StoreHits != 1 || s.JobsRemote != 1 || s.DedupHits != 2 {
		t.Fatalf("stats %+v, want 4 requested / 1 store hit / 1 remote / 2 dedup", s)
	}
	checkIdentity(t, s)

	// Cancel a call while its one dispatcher is inside a lookup: the jobs
	// it never reached are not counted, and the pool serves them later.
	var jobs []Job
	for seed := int64(10); seed < 30; seed++ {
		jobs = append(jobs, synthJob(seed, Baseline), synthJob(seed, Baseline))
	}
	cm := hitsFor(jobs...)
	ctx, cancel := context.WithCancel(context.Background())
	stall := JobKey(jobs[10])
	cm.hook = func(key string) {
		if key == stall {
			cancel()
		}
	}
	cp := New(Options{Workers: 1, Memo: cm})
	if _, err := cp.Run(ctx, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v", err)
	}
	s = cp.Stats()
	if s.JobsRequested == 0 || s.JobsRequested == len(jobs) {
		t.Fatalf("cancelled midway, yet %d of %d jobs counted", s.JobsRequested, len(jobs))
	}
	checkIdentity(t, s)
	cm.hook = nil
	if _, err := cp.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if s := cp.Stats(); s.StoreHits != len(jobs)/2 {
		t.Fatalf("stats %+v after the retry, want %d store hits", s, len(jobs)/2)
	}
	checkIdentity(t, cp.Stats())
}
