package runner

// The job lifecycle. RunEachVia is the pool's one execution path — Run and
// RunEach are wrappers over it. A call plans its jobs in one pass, then a
// fixed set of Options.Workers dispatcher goroutines takes its unique jobs
// through the same claim → store-Get → execute → store-Put lifecycle, and
// the caller may learn about every completion as it lands instead of only
// at the end — including whether the result came from the persistent store
// or from an execution, which is what lets a resumed sweep show its
// replayed cells instantly.

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"slicc/internal/workload"
)

// RunEach executes jobs like Run and returns their results in input order,
// additionally invoking onDone once per successfully completed job as it
// finishes. onDone receives the job's input index, its result, and whether
// the result was served by the persistent store rather than executed; it
// may be called concurrently from multiple goroutines and must return
// promptly. Jobs that fail (including cancellation) produce no callback;
// as with Run, cancellation returns ctx.Err() and releases unfinished
// claims for a later retry.
//
// Completion order is scheduling-dependent, but everything observable per
// job — the result bytes, the store key, the stats accounting — is not,
// so callers stream content-deterministic events in a nondeterministic
// order.
func (p *Pool) RunEach(ctx context.Context, jobs []Job, onDone func(i int, res Result, storeHit bool)) ([]Result, error) {
	return p.RunEachVia(ctx, jobs, nil, onDone)
}

// RunEachVia is RunEach with an optional Remote: claimed jobs that miss
// the persistent Memo are resolved by remote.Execute (the distributed
// worker fleet) instead of a local execution, and their results read back
// from the Memo — so a non-nil remote requires Options.Memo (the store is
// the result transport). Everything else is identical to RunEach: store
// keys, dedup, stats accounting (remote resolutions count as JobsRemote),
// per-completion callbacks, and the results themselves — which is what
// makes distributed and standalone runs byte-identical and cross-warming.
func (p *Pool) RunEachVia(ctx context.Context, jobs []Job, remote Remote, onDone func(i int, res Result, storeHit bool)) ([]Result, error) {
	if remote != nil && p.persist == nil {
		return nil, errors.New("runner: remote execution requires a persistent Memo (the store carries results back)")
	}
	norm, err := p.normalizeJobs(jobs)
	if err != nil {
		return nil, err
	}
	c := &call{p: p, ctx: ctx, norm: norm, remote: remote, onDone: onDone, results: make([]Result, len(norm))}
	c.plan()
	c.run()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.results, c.firstErr
}

// call is one RunEachVia invocation.
type call struct {
	p      *Pool
	ctx    context.Context
	norm   []Job
	remote Remote
	onDone func(i int, res Result, storeHit bool)

	// dups[i] lists the later indices of jobs identical to job i, for i
	// the first occurrence; order lists those first occurrences in
	// dispatch order, and next is the position in order of the next one a
	// dispatcher takes.
	dups  [][]int
	order []int
	next  atomic.Int64

	// wg counts the dispatchers and the goroutines they hand jobs to.
	wg sync.WaitGroup
	// results is written once per index, by whichever goroutine resolves
	// that index's job, and read after wg.Wait.
	results  []Result
	mu       sync.Mutex
	firstErr error
}

// plan is the call's one pass over its normalized jobs. It groups
// identical jobs under their first occurrence, so each runs once and its
// duplicates resolve the moment it does. It orders the unique jobs by
// workload occurrence: every workload's first job, then every workload's
// second, and so on, by index within a rank. Two jobs over one workload
// replay one recording (trace.Tee), and readers at its frontier take
// turns on the tee's lock, so starting them apart keeps them from
// colliding there, as index order — a sweep's cells of one workload
// side by side — would make them.
//
// For a local call, plan also marks the synthetic workloads that two or
// more distinct jobs name: their threads are about to be replayed more
// than once, so Workload tells them to record each op stream during its
// first replay rather than prove hot first (see workload.ExpectReplays).
// The decision rests only on how much work the submitted jobs share; a
// job submitted alone never marks anything, so lone runs keep the
// generator's constant memory. Remote misses execute elsewhere, so a
// remote call builds no workloads and marks none.
//
// Duplicates are found by comparing jobs that name one workload — a
// small-keyed map and a struct compare per job, no hashing of whole Jobs.
func (c *call) plan() {
	// firsts maps each workload to the first occurrences of its distinct
	// jobs; a job's rank is its position there.
	firsts := make(map[workload.Config][]int)
	rank := make([]int, len(c.norm))
	c.dups = make([][]int, len(c.norm))
	for i := range c.norm {
		wl := c.norm[i].Workload
		fs := firsts[wl]
		if k := slices.IndexFunc(fs, func(f int) bool { return c.norm[f] == c.norm[i] }); k >= 0 {
			c.dups[fs[k]] = append(c.dups[fs[k]], i)
			continue
		}
		rank[i] = len(fs)
		firsts[wl] = append(fs, i)
		c.order = append(c.order, i)
	}
	slices.SortStableFunc(c.order, func(a, b int) int { return cmp.Compare(rank[a], rank[b]) })

	p := c.p
	p.mu.Lock()
	// Requests and schedulings are counted up front, so progress reads
	// against the call's whole size; resolve and finish settle both.
	p.stats.JobsRequested += len(c.norm)
	p.scheduled += len(c.order)
	if c.remote == nil {
		for wl, fs := range firsts {
			if len(fs) >= 2 && wl.TraceDigest == "" {
				p.shared[wl] = true
			}
		}
	}
	p.mu.Unlock()
	if len(c.order) > 0 {
		p.progress()
	}
}

// run resolves the planned jobs on min(Workers, unique jobs) dispatchers
// and waits for every one, including those handed to goroutines of their
// own. Jobs a cancellation left undispatched give back the requests and
// schedulings plan counted for them.
func (c *call) run() {
	n := min(cap(c.p.sem), len(c.order))
	c.wg.Add(n)
	for range n {
		go c.dispatch()
	}
	c.wg.Wait()
	if taken := min(int(c.next.Load()), len(c.order)); taken < len(c.order) {
		requests := 0
		for _, i := range c.order[taken:] {
			requests += 1 + len(c.dups[i])
		}
		c.p.mu.Lock()
		c.p.stats.JobsRequested -= requests
		c.p.scheduled -= len(c.order) - taken
		c.p.mu.Unlock()
	}
}

// dispatch takes the call's unique jobs in order, computing each one's
// key on this goroutine, until none are left or the call is cancelled.
func (c *call) dispatch() {
	defer c.wg.Done()
	for c.ctx.Err() == nil {
		k := int(c.next.Add(1)) - 1
		if k >= len(c.order) {
			return
		}
		i := c.order[k]
		c.resolve(i, JobKey(c.norm[i]), false)
	}
}

// resolve settles unique job i, keyed key, through the pool's memo: claim
// the entry or join it, and execute if claimed. On a dispatcher (own ==
// false) it resolves inline what needs no waiting — an entry already
// done, a store hit, a local execution, which takes a slot of the
// pool-wide semaphore like any other — and hands a remote execution or a
// join of an entry still in flight to a goroutine of its own, since
// neither holds a CPU while it waits. There (own == true) it waits, and
// claims again an entry evicted by a *different* caller's cancellation.
// Only cancellation is worth retrying: a job that failed on its own (e.g.
// an unreadable trace file) would fail identically again.
func (c *call) resolve(i int, key string, own bool) {
	p, j := c.p, c.norm[i]
	planned := !own // this claim settles the scheduling plan counted
	for {
		e, claimed := p.claim(key, planned)
		planned = false
		if !claimed {
			if !own && !e.done() {
				c.handOff(func() { c.resolve(i, key, true) })
				return
			}
			select {
			case <-e.ready:
			case <-c.ctx.Done():
				c.finish(i, Result{Err: c.ctx.Err()}, false, false)
				return
			}
			if isCancellation(e.res.Err) && c.ctx.Err() == nil {
				continue // another caller's cancellation; the entry was evicted
			}
			c.finish(i, e.res, e.storeHit, true)
			return
		}
		switch {
		case p.lookup(key, e):
		case c.remote != nil && j.Workload.TraceDigest == "":
			// Trace-driven jobs stay local defensively: their payload
			// carries only the content digest, which a remote worker cannot
			// resolve back to a readable file. Sweep cells are always
			// synthetic.
			remote := func() {
				p.executeRemote(c.ctx, j, key, e, c.remote)
				c.finish(i, e.res, false, false)
			}
			if own {
				remote()
			} else {
				c.handOff(remote)
			}
			return
		default:
			p.execute(c.ctx, j, key, e)
		}
		c.finish(i, e.res, e.storeHit, false)
		return
	}
}

// handOff runs f on a goroutine of its own that the call waits for.
func (c *call) handOff(f func()) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		f()
	}()
}

// finish records unique job i's outcome for i and each of its duplicates,
// once each. A success counts the duplicates — and i itself when it
// joined another job's entry — as dedup hits and reports every index to
// onDone; a failure gives back their requests, so the stats invariant
// JobsRequested == JobsExecuted + DedupHits + StoreHits + JobsRemote holds
// at every quiescent point, failures and cancellations included.
func (c *call) finish(i int, res Result, storeHit, joined bool) {
	dups := c.dups[i]
	c.results[i] = res
	for _, d := range dups {
		c.results[d] = res
	}
	p := c.p
	if res.Err != nil {
		p.mu.Lock()
		p.stats.JobsRequested -= 1 + len(dups)
		p.mu.Unlock()
		c.mu.Lock()
		if c.firstErr == nil {
			c.firstErr = res.Err
		}
		c.mu.Unlock()
		return
	}
	hits := len(dups)
	if joined {
		hits++
	}
	if hits > 0 {
		p.mu.Lock()
		p.stats.DedupHits += hits
		p.mu.Unlock()
	}
	if c.onDone != nil {
		c.onDone(i, res, storeHit)
		for _, d := range dups {
			c.onDone(d, res, storeHit)
		}
	}
}
