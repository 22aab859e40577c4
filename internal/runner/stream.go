package runner

// The job lifecycle. RunEachVia is the pool's one execution path — Run and
// RunEach are wrappers over it. Each job goes through the same claim →
// store-Get → execute → store-Put lifecycle in its own goroutine, and the
// caller may learn about every completion as it lands instead of only at
// the end — including whether the result came from the persistent store
// or from an execution, which is what lets a resumed sweep show its
// replayed cells instantly.

import (
	"context"
	"errors"
	"sync"
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
	if remote == nil {
		// Remote misses execute elsewhere; this pool builds no workloads.
		p.noteShared(norm)
	}
	results := make([]Result, len(norm))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for i := range norm {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, storeHit := p.runOne(ctx, norm[i], remote)
			mu.Lock()
			results[i] = res
			if firstErr == nil && res.Err != nil {
				firstErr = res.Err
			}
			mu.Unlock()
			if res.Err == nil && onDone != nil {
				onDone(i, res, storeHit)
			}
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, firstErr
}

// runOne resolves a single job through the pool's memo: claim (or join)
// the entry, execute if claimed, and retry entries poisoned by a
// *different* caller's cancellation. Only cancellation is worth retrying:
// a job that failed on its own (e.g. an unreadable trace file) would fail
// identically again. The stats invariant JobsRequested == JobsExecuted +
// DedupHits + StoreHits + JobsRemote holds at every quiescent point,
// including the dedup un-count when a joined entry's owner is cancelled
// and this caller ends up executing after all.
func (p *Pool) runOne(ctx context.Context, j Job, remote Remote) (Result, bool) {
	p.mu.Lock()
	p.stats.JobsRequested++
	p.mu.Unlock()
	counted := false // a dedup hit currently counted for this job
	for {
		e, claimed := p.claim(j)
		if claimed {
			if counted {
				counted = false
				p.mu.Lock()
				p.stats.DedupHits--
				p.mu.Unlock()
			}
			p.progress()
			p.execute(ctx, j, e, remote)
		} else if !counted {
			counted = true
			p.mu.Lock()
			p.stats.DedupHits++
			p.mu.Unlock()
		}
		select {
		case <-e.ready:
		case <-ctx.Done():
			return Result{Err: ctx.Err()}, false
		}
		if isCancellation(e.res.Err) && ctx.Err() == nil {
			continue // another caller's cancellation; the entry was evicted
		}
		return e.res, e.storeHit
	}
}
