// Package runner executes simulation jobs on a worker pool. It is the
// parallel engine underneath the experiment harness and the public API:
// every simulation in the paper's evaluation is a pure function of
// (workload config, machine config, policy), so jobs are declared as plain
// comparable values, deduplicated by content, memoized across batches, and
// resolved by a fixed set of dispatcher goroutines (Options.Workers,
// default GOMAXPROCS) with context cancellation.
//
// The contract that makes this safe:
//
//   - workload.Workload is immutable after New, so one synthesis is shared
//     by every simulation of that workload (each sim re-creates its own
//     trace sources from the immutable thread descriptors);
//   - sim.Machine is single-use and built per job, so concurrent jobs share
//     nothing mutable;
//   - results are independent of execution order, so a batch's results are
//     deterministic for any worker count.
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"sync"
	"time"

	"slicc/internal/bloom"
	"slicc/internal/cache"
	"slicc/internal/prefetch"
	"slicc/internal/sched"
	"slicc/internal/sim"
	islicc "slicc/internal/slicc"
	"slicc/internal/telemetry"
	"slicc/internal/trace"
	"slicc/internal/workload"
)

// PolicyKind selects a job's scheduler/prefetcher pair. The PIF upper bound
// needs no kind of its own: it is Baseline on a machine whose L1-I config
// was transformed by prefetch.PIFUpperBoundL1I.
type PolicyKind int

// Policy kinds.
const (
	// Baseline is the conventional OS scheduler.
	Baseline PolicyKind = iota
	// NextLine is Baseline plus a next-line instruction prefetcher.
	NextLine
	// SLICC runs internal/slicc with the spec's SLICC configuration
	// (which selects the variant).
	SLICC
	// Stream is Baseline plus the finite-storage temporal stream
	// prefetcher.
	Stream
	// STEPS is the time-multiplexing related-work policy.
	STEPS
	// CSP migrates for system code only; its shared-code ranges are
	// derived from the job's workload at execution time, keeping the job
	// spec declarative.
	CSP
)

// Remote executes claimed jobs somewhere else — the enqueue-instead-of-
// execute seam under distributed sweeps. Execute receives the job's
// content key (JobKey) and the canonical JSON of the normalized job; it
// returns once the job's result has been published to the shared store
// under that key (by whoever executed it), or with an error when the job
// cannot be resolved remotely. Implementations must be safe for
// concurrent use. The queue dispatcher is the production implementation.
type Remote interface {
	Execute(ctx context.Context, key string, job []byte) error
}

// PolicySpec declares a job's policy as data.
type PolicySpec struct {
	Kind PolicyKind
	// SLICC configures the SLICC policy; ignored for other kinds.
	SLICC islicc.Config
}

// JobKind separates full machine simulations from the bloom-accuracy replay
// of Figure 9 (which drives one cache+filter pair, not a machine).
type JobKind int

// Job kinds.
const (
	// KindSim runs a full multicore simulation.
	KindSim JobKind = iota
	// KindBloomAccuracy replays a thread sample through one cache+bloom
	// filter pair and records filter/ground-truth agreement (Figure 9).
	KindBloomAccuracy
)

// Job declares one unit of work as a comparable value: two jobs that
// compare equal produce identical results, which is what dedup and
// memoization key on.
type Job struct {
	Kind     JobKind
	Workload workload.Config

	// KindSim fields.
	Machine sim.Config
	Policy  PolicySpec

	// KindBloomAccuracy fields.
	Cache         cache.Config
	BloomBits     int
	SampleThreads int
}

// normalized fills defaulted spellings in so that semantically identical
// jobs compare equal.
func (j Job) normalized() Job {
	j.Workload = j.Workload.WithDefaults()
	switch j.Kind {
	case KindSim:
		j.Machine = j.Machine.WithDefaults()
		if j.Policy.Kind == SLICC {
			j.Policy.SLICC = j.Policy.SLICC.WithDefaults()
		}
	case KindBloomAccuracy:
		j.Machine = sim.Config{}
		j.Policy = PolicySpec{}
	}
	return j
}

// Result is one job's outcome.
type Result struct {
	// Sim holds the machine metrics for KindSim jobs.
	Sim sim.Result
	// ReuseGlobal/ReusePerType are filled when the job's machine set
	// TrackReuse (the Figure 3 breakdown).
	ReuseGlobal, ReusePerType sim.ReuseBreakdown
	// BloomAccuracy is the filter/ground-truth agreement for
	// KindBloomAccuracy jobs.
	BloomAccuracy float64
	// Err is non-nil when the job was cancelled mid-run or failed outright
	// (e.g. its trace container could not be opened).
	Err error
}

// isCancellation reports whether err is a context cancellation rather than
// a deterministic job failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Stats counts the pool's work since creation.
type Stats struct {
	// JobsRequested is the total jobs passed to Run, less those that failed
	// or were cancelled.
	JobsRequested int
	// JobsExecuted is how many simulations actually ran.
	JobsExecuted int
	// DedupHits is how many requested jobs were served by an identical
	// job's execution (in the same batch or memoized from an earlier one).
	DedupHits int
	// StoreHits is how many requested jobs were served by the persistent
	// Memo instead of executing. JobsRequested == JobsExecuted + DedupHits
	// + StoreHits + JobsRemote at every quiescent point.
	StoreHits int
	// JobsRemote is how many claimed jobs were resolved by a Remote (the
	// distributed worker fleet) rather than a local execution: the remote
	// ran them, the shared store carried the result back. Zero unless a
	// RunEachVia call passed a Remote.
	JobsRemote int
	// StorePuts is how many executed results were recorded in the Memo.
	StorePuts int
	// WorkloadsBuilt / WorkloadHits count workload-synthesis cache
	// misses/hits; the cache is keyed by (kind, threads, seed, scale).
	WorkloadsBuilt int
	WorkloadHits   int
	// Instructions is the total simulated instructions across executed
	// jobs (dedup and store hits contribute nothing: no instructions were
	// simulated for them). With wall-clock time it yields the pool's
	// effective simulation rate.
	Instructions uint64
	// OpStreamGeneratorPasses counts thread op-stream generator runs the
	// pool's synthetic workloads started for replays, and OpStreamsRecorded
	// the thread streams they finished recording for later replays (see
	// workload.ExpectReplays). A workload the submitted jobs share costs one
	// pass per thread; one that only proves hot over separate submissions
	// costs two; a lone job's costs one and records nothing.
	OpStreamGeneratorPasses uint64
	OpStreamsRecorded       uint64
	// MachinesRecycled is how many executed simulations ran on cache
	// storage released by an earlier one (sim.Machine.Release) instead of
	// freshly allocated storage; the rest of JobsExecuted allocated theirs.
	MachinesRecycled int
}

// Options configures a pool.
type Options struct {
	// Workers bounds concurrent job executions (default GOMAXPROCS) and is
	// the number of dispatcher goroutines each Run call resolves its jobs
	// on.
	Workers int
	// OnProgress, if set, is called (without any pool lock held) as jobs
	// are scheduled and as they finish, with the pool-lifetime completed
	// and scheduled counts.
	OnProgress func(done, scheduled int)
	// Memo, if set, persists results beneath the in-flight dedup: a
	// claimed job consults the Memo (keyed by JobKey) before executing and
	// records its result after. A store-backed Memo (NewStoreMemo) makes
	// memoization durable across processes.
	Memo Memo
}

// Pool runs jobs on a bounded set of workers and memoizes results for the
// pool's lifetime, so repeated jobs — within a batch, across batches, or
// across concurrent batches — simulate once.
//
// Each Run call resolves its jobs on Options.Workers dispatcher
// goroutines, not one goroutine per job. Identical jobs of one call run
// once, and every duplicate completes the moment the first does. The
// dispatchers take a call's jobs in workload-occurrence order, every
// workload's first job before any workload's second, so two replays of
// one recorded workload start apart instead of contending at the
// recording's frontier (trace.Tee). A dispatcher resolves inline a memo
// entry already done, a store hit and a local execution; a remote
// execution and a wait on an entry another call holds get a goroutine of
// their own, since they hold no CPU.
type Pool struct {
	onProgress func(done, scheduled int)
	// persist is the optional durable memoization layer (Options.Memo).
	persist Memo
	// sem bounds concurrent job executions pool-wide: concurrent Run
	// calls share the budget instead of multiplying it.
	sem chan struct{}

	mu sync.Mutex
	// memo holds every job's entry under its JobKey, computed once per
	// unique job of a call.
	memo      map[string]*entry
	workloads map[workload.Config]*wlEntry
	// shared holds the synthetic workloads some submitted batch named in
	// two or more distinct jobs (see call.plan).
	shared map[workload.Config]bool
	// retiredPasses/retiredRecorded carry the op-stream counters of
	// workloads Close evicted, so Stats stays cumulative.
	retiredPasses, retiredRecorded uint64
	// digests caches trace-file content digests by path, revalidated
	// against (size, mtime) so a re-recorded file is re-hashed.
	digests map[string]digestEntry
	// tracePaths remembers a path holding each digest's contents: job keys
	// carry only the digest (so identical recordings dedup across names),
	// and execution resolves the digest back to a readable file here.
	tracePaths map[string]string
	stats      Stats
	scheduled  int
	done       int
}

// digestEntry is one cached trace-file digest with the stat fingerprint it
// was computed under.
type digestEntry struct {
	size   int64
	mtime  time.Time
	digest string
}

// entry is a memoized (possibly in-flight) job execution.
type entry struct {
	ready chan struct{} // closed once res is valid
	res   Result
	// storeHit records that res was served by the persistent Memo rather
	// than an execution. Written before ready closes, read only after, so
	// no lock guards it. It is observation metadata (RunEach reports it to
	// streaming callers), never part of the result itself.
	storeHit bool
}

// done reports whether e's result is valid.
func (e *entry) done() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// wlEntry is a memoized (possibly in-flight) workload synthesis or trace
// open.
type wlEntry struct {
	ready chan struct{}
	w     *workload.Workload
	err   error
}

// New builds a pool.
func New(opts Options) *Pool {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		onProgress: opts.OnProgress,
		persist:    opts.Memo,
		sem:        make(chan struct{}, opts.Workers),
		memo:       make(map[string]*entry),
		workloads:  make(map[workload.Config]*wlEntry),
		shared:     make(map[workload.Config]bool),
		digests:    make(map[string]digestEntry),
		tracePaths: make(map[string]string),
	}
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.OpStreamGeneratorPasses, st.OpStreamsRecorded = p.retiredPasses, p.retiredRecorded
	for _, e := range p.workloads {
		select {
		case <-e.ready:
		default:
			continue // still under construction: nothing replayed yet
		}
		if e.w != nil {
			passes, recorded := e.w.OpStreamStats()
			st.OpStreamGeneratorPasses += passes
			st.OpStreamsRecorded += recorded
		}
	}
	return st
}

// Close releases resources the pool caches for its lifetime — today that
// is the open trace containers behind recorded workloads, whose
// descriptors would otherwise live as long as the process. It waits for
// in-flight workload constructions, then closes and evicts every cached
// workload. Close does not stop running jobs; call it after outstanding
// Run calls return. The pool remains usable afterwards (closed workloads
// are simply rebuilt on demand), so a long-lived caller may also use Close
// as a cache flush.
func (p *Pool) Close() error {
	p.mu.Lock()
	cached := make([]*wlEntry, 0, len(p.workloads))
	for _, e := range p.workloads {
		cached = append(cached, e)
	}
	p.workloads = make(map[workload.Config]*wlEntry)
	p.shared = make(map[workload.Config]bool)
	p.mu.Unlock()

	var firstErr error
	for _, e := range cached {
		<-e.ready
		if e.w == nil {
			continue
		}
		passes, recorded := e.w.OpStreamStats()
		p.mu.Lock()
		p.retiredPasses += passes
		p.retiredRecorded += recorded
		p.mu.Unlock()
		if err := e.w.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Run executes jobs and returns their results in input order: RunEachVia
// with no Remote and no callback. Identical jobs (within this batch or
// from any earlier Run on the pool) execute once; trace-backed jobs are
// keyed by the content digest of their trace file, so the memoization
// stays sound across renames and re-recordings. On cancellation Run
// returns ctx.Err() promptly; jobs already claimed but not finished are
// released so a later Run can retry them.
func (p *Pool) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	return p.RunEachVia(ctx, jobs, nil, nil)
}

// normalizeJobs normalizes a batch (including trace-digest resolution)
// before anything is claimed: a digest failure must be able to return
// early, and an early return after a claim would orphan the claimed
// entry's ready channel and deadlock every later Run of that job.
func (p *Pool) normalizeJobs(jobs []Job) ([]Job, error) {
	norm := make([]Job, len(jobs))
	for i, j := range jobs {
		j = j.normalized()
		if j.Workload.TracePath != "" {
			if j.Workload.TraceDigest == "" {
				d, err := p.traceDigest(j.Workload.TracePath)
				if err != nil {
					return nil, err
				}
				j.Workload.TraceDigest = d
			}
			p.mu.Lock()
			if _, ok := p.tracePaths[j.Workload.TraceDigest]; !ok {
				p.tracePaths[j.Workload.TraceDigest] = j.Workload.TracePath
			}
			p.mu.Unlock()
			// Key on contents only: the same recording under two names is
			// one job, and a re-recorded name is a different one.
			j.Workload.TracePath = ""
		}
		norm[i] = j
	}
	return norm, nil
}

// claim returns the memo entry for key, registering a fresh in-flight
// entry (claimed=true) when none exists; the caller that claimed it must
// resolve it via lookup, execute, executeRemote or fail. planned marks a
// dispatcher's first claim of a job its call already counted as
// scheduled: a fresh claim keeps that count, a join gives it back.
func (p *Pool) claim(key string, planned bool) (e *entry, claimed bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.memo[key]; ok {
		if planned {
			p.scheduled--
		}
		return e, false
	}
	e = &entry{ready: make(chan struct{})}
	p.memo[key] = e
	if !planned {
		p.scheduled++
	}
	return e, true
}

// lookup resolves a claimed entry from the persistent Memo when it holds
// key. The Memo sits directly under the claim: only the one claimant of a
// job looks it up (concurrent identical jobs cost one disk read), and a
// hit publishes without ever taking a worker slot. A fleet replay takes
// this path before any remote execution, which is what makes distributed
// reruns replay instantly.
func (p *Pool) lookup(key string, e *entry) bool {
	if p.persist == nil {
		return false
	}
	res, ok := p.persist.Get(key)
	if !ok {
		return false
	}
	p.mu.Lock()
	p.stats.StoreHits++
	p.done++
	p.mu.Unlock()
	e.res = res
	e.storeHit = true
	close(e.ready)
	p.progress()
	return true
}

// execute runs one claimed job that missed the persistent Memo, records
// its result there for every future process, and publishes it. It blocks
// on the pool-wide worker semaphore, so total concurrency stays at
// Options.Workers no matter how many Run calls are in flight.
func (p *Pool) execute(ctx context.Context, j Job, key string, e *entry) {
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		p.fail(key, e, ctx.Err())
		return
	}
	defer func() { <-p.sem }()
	if err := ctx.Err(); err != nil {
		p.fail(key, e, err)
		return
	}
	res := p.exec(ctx, j)
	if res.Err != nil {
		p.fail(key, e, res.Err)
		return
	}
	if p.persist != nil {
		p.persist.Put(key, res)
		p.mu.Lock()
		p.stats.StorePuts++
		p.mu.Unlock()
	}
	p.mu.Lock()
	p.stats.JobsExecuted++
	p.stats.Instructions += res.Sim.Instructions
	p.done++
	p.mu.Unlock()
	e.res = res
	close(e.ready)
	p.progress()
}

// executeRemote resolves one claimed job through the Remote: ship the
// normalized job, wait for the fleet, then read the result back from the
// persistent Memo — the store is the result transport, so a "completed"
// job whose result is missing is an error, not a silent re-execution.
// Remote jobs never take a local worker slot: the control plane's
// concurrency is bounded by the fleet, not by its own -j.
func (p *Pool) executeRemote(ctx context.Context, j Job, key string, e *entry, remote Remote) {
	payload, err := json.Marshal(j)
	if err != nil {
		// Job is a tree of plain exported value fields; Marshal cannot fail.
		p.fail(key, e, fmt.Errorf("runner: encoding job for remote execution: %w", err))
		return
	}
	if err := remote.Execute(ctx, key, payload); err != nil {
		p.fail(key, e, err)
		return
	}
	res, ok := p.persist.Get(key)
	if !ok {
		p.fail(key, e, fmt.Errorf("runner: remote completed job %s but its result is not in the store", key))
		return
	}
	p.mu.Lock()
	p.stats.JobsRemote++
	p.done++
	p.mu.Unlock()
	e.res = res
	close(e.ready)
	p.progress()
}

// fail publishes an error result and evicts the entry so a later Run
// re-executes the job instead of replaying the cancellation.
func (p *Pool) fail(key string, e *entry, err error) {
	if err == nil {
		err = context.Canceled
	}
	p.mu.Lock()
	if p.memo[key] == e {
		delete(p.memo, key)
	}
	p.scheduled--
	p.mu.Unlock()
	e.res = Result{Err: err}
	close(e.ready)
}

func (p *Pool) progress() {
	if p.onProgress == nil {
		return
	}
	p.mu.Lock()
	done, scheduled := p.done, p.scheduled
	p.mu.Unlock()
	p.onProgress(done, scheduled)
}

// Workload returns the workload for cfg — synthesized for benchmark
// configs, opened from the trace container for trace configs — building it
// at most once per pool (concurrent requests for the same config share one
// construction). The returned workload is immutable and safe to share; a
// trace workload streams ops from its open container on demand, so sharing
// it costs header-sized memory no matter how large the file is.
func (p *Pool) Workload(cfg workload.Config) (*workload.Workload, error) {
	cfg = cfg.WithDefaults()
	p.mu.Lock()
	shared := p.shared[cfg]
	e, ok := p.workloads[cfg]
	if ok {
		p.stats.WorkloadHits++
		p.mu.Unlock()
		<-e.ready
		if shared && e.w != nil {
			// Built before any batch shared it: still worth telling.
			e.w.ExpectReplays()
		}
		return e.w, e.err
	}
	e = &wlEntry{ready: make(chan struct{})}
	p.workloads[cfg] = e
	p.stats.WorkloadsBuilt++
	p.mu.Unlock()

	switch {
	case cfg.TracePath != "":
		e.w, e.err = workload.FromTraceFile(cfg.TracePath)
	case cfg.TraceDigest != "":
		// A digest-only config came from a normalized job; resolve it back
		// to the path that carried it.
		p.mu.Lock()
		path := p.tracePaths[cfg.TraceDigest]
		p.mu.Unlock()
		if path == "" {
			e.err = fmt.Errorf("runner: no known path for trace digest %s", cfg.TraceDigest)
		} else {
			e.w, e.err = workload.FromTraceFile(path)
		}
	default:
		e.w = workload.New(cfg)
		if shared {
			e.w.ExpectReplays()
		}
	}
	if e.err != nil {
		// Evict the failure so a later request (say, after the user fixes
		// the file) retries instead of replaying the error forever.
		p.mu.Lock()
		if p.workloads[cfg] == e {
			delete(p.workloads, cfg)
		}
		p.mu.Unlock()
	}
	close(e.ready)
	return e.w, e.err
}

// traceDigest returns the content digest of the trace file at path, cached
// per pool and revalidated against the file's (size, mtime) so a
// re-recorded file is re-hashed rather than served stale.
func (p *Pool) traceDigest(path string) (string, error) {
	st, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	p.mu.Lock()
	e, ok := p.digests[path]
	p.mu.Unlock()
	if ok && e.size == st.Size() && e.mtime.Equal(st.ModTime()) {
		return e.digest, nil
	}
	d, err := trace.FileDigest(path)
	if err != nil {
		return "", err
	}
	p.mu.Lock()
	p.digests[path] = digestEntry{size: st.Size(), mtime: st.ModTime(), digest: d}
	p.mu.Unlock()
	return d, nil
}

// exec performs the actual work for one job. The span here is the job
// granularity of the tracing contract: one span per executed simulation
// (store and dedup hits never reach exec), covering workload resolution
// plus the run — never anything inside the per-instruction loop.
func (p *Pool) exec(ctx context.Context, j Job) Result {
	ctx, sp := telemetry.StartSpan(ctx, "runner.job",
		slog.String("workload", j.Workload.Kind.Token()),
		slog.Int("threads", j.Workload.Threads))
	defer sp.End()
	w, err := p.Workload(j.Workload)
	if err != nil {
		return Result{Err: err}
	}
	switch j.Kind {
	case KindBloomAccuracy:
		return execBloom(ctx, j, w)
	default:
		return p.execSim(ctx, j, w)
	}
}

// execSim builds and runs one machine, then hands its cache storage on to
// the next.
func (p *Pool) execSim(ctx context.Context, j Job, w *workload.Workload) Result {
	policy, pref := buildPolicy(j.Policy, w)
	m := sim.New(j.Machine, policy, pref, w.Threads())
	_, sp := telemetry.StartSpan(ctx, "sim.run")
	r, err := m.RunContext(ctx)
	sp.SetAttrs(slog.Uint64("instructions", r.Instructions))
	sp.End()
	res := Result{Sim: r, Err: err}
	if j.Machine.TrackReuse && m.Reuse() != nil {
		res.ReuseGlobal = m.Reuse().Global()
		res.ReusePerType = m.Reuse().PerType()
	}
	p.retire(m)
	return res
}

// retire releases a finished machine's cache storage for reuse and counts
// it when it had itself been built on recycled storage.
func (p *Pool) retire(m *sim.Machine) {
	recycled := m.Recycled()
	m.Release()
	if recycled {
		p.mu.Lock()
		p.stats.MachinesRecycled++
		p.mu.Unlock()
	}
}

// buildPolicy materializes a declarative policy spec against its workload.
func buildPolicy(spec PolicySpec, w *workload.Workload) (sim.Policy, sim.Prefetcher) {
	switch spec.Kind {
	case NextLine:
		return sched.NewBaseline(), prefetch.NewNextLine()
	case SLICC:
		return islicc.New(spec.SLICC), nil
	case Stream:
		return sched.NewBaseline(), prefetch.NewStream()
	case STEPS:
		return sched.NewSTEPS(), nil
	case CSP:
		var ranges []sched.BlockRange
		for _, r := range w.SharedRanges() {
			ranges = append(ranges, sched.BlockRange{Lo: r[0], Hi: r[1]})
		}
		return sched.NewCSP(ranges), nil
	default:
		return sched.NewBaseline(), nil
	}
}

// execBloom replays a sample of the workload's threads through one
// cache+filter pair and measures their agreement (Figure 9).
func execBloom(ctx context.Context, j Job, w *workload.Workload) Result {
	c := cache.New(j.Cache)
	filt := bloom.New(bloom.Config{Bits: j.BloomBits})
	c.OnInsert = filt.Insert
	c.OnEvict = filt.Remove
	var tr bloom.AccuracyTracker
	threads := w.Threads()
	n := len(threads)
	if j.SampleThreads > 0 && n > j.SampleThreads {
		n = j.SampleThreads
	}
	for _, th := range threads[:n] {
		if err := ctx.Err(); err != nil {
			return Result{Err: err}
		}
		src := th.New()
		for {
			op, ok := src.Next()
			if !ok {
				break
			}
			filterHit := filt.Contains(c.BlockAddr(op.PC))
			res := c.Access(op.PC, false)
			tr.Record(filterHit, res.Hit)
		}
	}
	return Result{BloomAccuracy: tr.Accuracy()}
}
