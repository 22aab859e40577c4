package runner

import (
	"context"
	"testing"
	"time"

	"slicc/internal/cache"
	"slicc/internal/sim"
	islicc "slicc/internal/slicc"
	"slicc/internal/workload"
)

// tinyWorkload is a few-hundred-millisecond simulation input.
func tinyWorkload() workload.Config {
	return workload.Config{Kind: workload.TPCC1, Threads: 6, Seed: 3, Scale: 0.1}
}

func tinyJob() Job {
	return Job{Workload: tinyWorkload(), Machine: sim.Config{Cores: 16}}
}

func TestDedupWithinBatchAndAcrossRuns(t *testing.T) {
	p := New(Options{Workers: 4})
	slicc := Job{Workload: tinyWorkload(), Machine: sim.Config{Cores: 16},
		Policy: PolicySpec{Kind: SLICC, SLICC: islicc.DefaultConfig(islicc.SW)}}

	rs, err := p.Run(context.Background(), []Job{tinyJob(), slicc, tinyJob()})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Sim.Cycles != rs[2].Sim.Cycles || rs[0].Sim.IMPKI() != rs[2].Sim.IMPKI() {
		t.Fatalf("duplicate jobs disagree: %v vs %v cycles", rs[0].Sim.Cycles, rs[2].Sim.Cycles)
	}
	if rs[0].Sim.Cycles == rs[1].Sim.Cycles {
		t.Fatal("distinct jobs produced identical cycles; suspicious dedup")
	}
	s := p.Stats()
	if s.JobsRequested != 3 || s.JobsExecuted != 2 || s.DedupHits != 1 {
		t.Fatalf("stats after batch = %+v, want 3 requested / 2 executed / 1 dedup hit", s)
	}

	// A later Run of a memoized job must not re-execute it.
	rs2, err := p.Run(context.Background(), []Job{tinyJob()})
	if err != nil {
		t.Fatal(err)
	}
	if rs2[0].Sim.Cycles != rs[0].Sim.Cycles {
		t.Fatal("memoized result diverged")
	}
	s = p.Stats()
	if s.JobsExecuted != 2 || s.DedupHits != 2 {
		t.Fatalf("stats after memo hit = %+v, want 2 executed / 2 dedup hits", s)
	}
}

func TestDedupNormalizesDefaultedConfigs(t *testing.T) {
	p := New(Options{Workers: 2})
	explicit := tinyJob()
	defaulted := explicit
	defaulted.Machine = sim.Config{} // zero machine = the 16-core default
	if _, err := p.Run(context.Background(), []Job{explicit, defaulted}); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.JobsExecuted != 1 || s.DedupHits != 1 {
		t.Fatalf("stats = %+v; defaulted and explicit spellings should dedup", s)
	}
}

func TestWorkloadCacheReuse(t *testing.T) {
	p := New(Options{Workers: 2})
	small := tinyJob()
	big := tinyJob()
	big.Machine.L1I = cache.Config{SizeBytes: 64 * 1024}
	if _, err := p.Run(context.Background(), []Job{small, big}); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.JobsExecuted != 2 {
		t.Fatalf("executed %d jobs, want 2", s.JobsExecuted)
	}
	if s.WorkloadsBuilt != 1 || s.WorkloadHits != 1 {
		t.Fatalf("workload cache stats = %+v, want 1 built / 1 hit", s)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	jobs := []Job{tinyJob()}
	for _, dil := range []int{2, 10, 20} {
		jobs = append(jobs, Job{Workload: tinyWorkload(), Machine: sim.Config{Cores: 16},
			Policy: PolicySpec{Kind: SLICC, SLICC: islicc.Config{Variant: islicc.SW, DilutionT: dil}.WithDefaults()}})
	}
	serial, err := New(Options{Workers: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(Options{Workers: 8}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if serial[i].Sim.Cycles != parallel[i].Sim.Cycles ||
			serial[i].Sim.Migrations != parallel[i].Sim.Migrations {
			t.Fatalf("job %d diverged between 1 and 8 workers", i)
		}
	}
}

func TestBloomAccuracyJob(t *testing.T) {
	p := New(Options{Workers: 2})
	job := Job{
		Kind:          KindBloomAccuracy,
		Workload:      tinyWorkload(),
		Cache:         cache.Config{SizeBytes: 32 * 1024},
		BloomBits:     2048,
		SampleThreads: 4,
	}
	rs, err := p.Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if acc := rs[0].BloomAccuracy; acc < 0.9 || acc > 1 {
		t.Fatalf("2K-bit bloom accuracy = %f, want in [0.9, 1]", acc)
	}
}

func TestCancellationBeforeStart(t *testing.T) {
	p := New(Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Run(ctx, []Job{tinyJob()}); err == nil {
		t.Fatal("pre-cancelled context did not error")
	}
	// The job must have been released for a retry, not poisoned.
	if _, err := p.Run(context.Background(), []Job{tinyJob()}); err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if s := p.Stats(); s.JobsExecuted != 1 {
		t.Fatalf("stats = %+v, want exactly 1 executed", s)
	}
}

// TestCancelledPeerDoesNotPoison: when two concurrent Runs share an
// in-flight job and the executing Run's context is cancelled, the other
// Run must retry the job under its own (live) context and succeed.
func TestCancelledPeerDoesNotPoison(t *testing.T) {
	p := New(Options{Workers: 1})
	job := Job{Workload: workload.Config{Kind: workload.TPCC1, Threads: 48, Seed: 1, Scale: 0.5},
		Machine: sim.Config{Cores: 16}}

	ctxA, cancelA := context.WithCancel(context.Background())
	aDone := make(chan error, 1)
	go func() {
		_, err := p.Run(ctxA, []Job{job})
		aDone <- err
	}()
	time.Sleep(200 * time.Millisecond) // let A claim and start the job

	bDone := make(chan error, 1)
	go func() {
		_, err := p.Run(context.Background(), []Job{job})
		bDone <- err
	}()
	time.Sleep(100 * time.Millisecond) // let B dedup-hit A's entry
	cancelA()

	if err := <-aDone; err == nil {
		t.Fatal("cancelled Run A returned no error")
	}
	select {
	case err := <-bDone:
		if err != nil {
			t.Fatalf("Run B poisoned by A's cancellation: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Run B did not finish")
	}
}

func TestCancellationMidRun(t *testing.T) {
	p := New(Options{Workers: 1})
	// Big enough to run for many seconds if not cancelled.
	job := Job{Workload: workload.Config{Kind: workload.TPCC1, Threads: 96, Seed: 1, Scale: 1},
		Machine: sim.Config{Cores: 16}}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := p.Run(ctx, []Job{job})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled run returned no error")
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("cancellation took %v", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancellation")
	}
}

// opStreamJobs returns two distinct jobs over one tiny workload.
func opStreamJobs(seed int64) (base, slicc Job) {
	wl := workload.Config{Kind: workload.TPCC1, Threads: 4, Seed: seed, Scale: 0.05}
	base = Job{Workload: wl}
	slicc = Job{Workload: wl, Policy: PolicySpec{Kind: SLICC, SLICC: islicc.DefaultConfig(islicc.SW)}}
	return base, slicc
}

// TestOpStreamLadderFollowsSubmission pins when a pool records op streams:
// a job submitted alone replays the bare generator and records nothing
// (constant memory for lone runs); two distinct jobs submitted together
// over one workload cost one generator pass per thread; the same two jobs
// submitted separately cost two, as a workload that merely proves hot
// always has.
func TestOpStreamLadderFollowsSubmission(t *testing.T) {
	ctx := context.Background()
	const threads = 4

	lone := New(Options{Workers: 2})
	base, slicc := opStreamJobs(1)
	if _, err := lone.Run(ctx, []Job{base, base}); err != nil { // duplicates are one job
		t.Fatal(err)
	}
	if s := lone.Stats(); s.OpStreamGeneratorPasses != threads || s.OpStreamsRecorded != 0 {
		t.Fatalf("lone job: %d generator passes, %d streams recorded; want %d, 0",
			s.OpStreamGeneratorPasses, s.OpStreamsRecorded, threads)
	}
	if _, err := lone.Run(ctx, []Job{slicc}); err != nil {
		t.Fatal(err)
	}
	if s := lone.Stats(); s.OpStreamGeneratorPasses != 2*threads || s.OpStreamsRecorded != threads {
		t.Fatalf("two separate submissions: %d generator passes, %d streams recorded; want %d, %d",
			s.OpStreamGeneratorPasses, s.OpStreamsRecorded, 2*threads, threads)
	}

	for name, run := range map[string]func(*Pool, []Job) error{
		"Run":     func(p *Pool, jobs []Job) error { _, err := p.Run(ctx, jobs); return err },
		"RunEach": func(p *Pool, jobs []Job) error { _, err := p.RunEach(ctx, jobs, nil); return err },
	} {
		shared := New(Options{Workers: 2})
		b1, s1 := opStreamJobs(1)
		b2, s2 := opStreamJobs(2)
		if err := run(shared, []Job{b1, s1, b2, s2, b1}); err != nil {
			t.Fatal(err)
		}
		s := shared.Stats()
		if s.OpStreamGeneratorPasses != 2*threads || s.OpStreamsRecorded != 2*threads {
			t.Errorf("%s of two shared workloads: %d generator passes, %d streams recorded; want %d, %d",
				name, s.OpStreamGeneratorPasses, s.OpStreamsRecorded, 2*threads, 2*threads)
		}
		// The counters outlive the workloads they were counted on.
		if err := shared.Close(); err != nil {
			t.Fatal(err)
		}
		if after := shared.Stats(); after.OpStreamGeneratorPasses != s.OpStreamGeneratorPasses || after.OpStreamsRecorded != s.OpStreamsRecorded {
			t.Errorf("%s: Close changed the op-stream counters: %+v -> %+v", name, s, after)
		}
	}
}

// TestMachinesRecycled: a pool hands each finished machine's cache storage
// to a later one and counts it.
func TestMachinesRecycled(t *testing.T) {
	p := New(Options{Workers: 1})
	// sync.Pool may drop a released store (the race detector makes it do
	// so at random), so allow a few machines before the first reuse.
	for seed := int64(1); p.Stats().MachinesRecycled == 0; seed++ {
		if seed > 24 {
			t.Fatal("24 sequential simulations and none ran on recycled storage")
		}
		job := Job{Workload: workload.Config{Kind: workload.MapReduce, Threads: 2, Seed: seed, Scale: 0.05}}
		if _, err := p.Run(context.Background(), []Job{job}); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Stats(); s.MachinesRecycled > s.JobsExecuted {
		t.Fatalf("%d machines recycled of %d executed", s.MachinesRecycled, s.JobsExecuted)
	}
}
