package runner

// Lockstep batch execution: RunBatched is Run with multi-cell batching.
// KindSim jobs that share a (normalized) workload config form a family;
// each family's store misses execute as one sim.RunBatch pass over the
// workload's shared decoded op table (workload.BatchThreads), so the
// family decodes each op once instead of once per cell. Everything
// observable matches Run: results arrive in input order and are
// byte-identical to scalar execution, the persistent store is consulted
// and recorded per cell with unchanged keys (hits shrink the batch;
// cross-warming works in both directions), and dedup/memoization behave
// as if each cell had run alone.

import (
	"context"
	"sync"

	"slicc/internal/sim"
	"slicc/internal/workload"
)

// maxGangMachines caps how many machines one sim.RunBatch pass interleaves.
// Larger gangs amortize nothing extra — the decoded table is shared across
// gangs — but multiply the live model state (caches, directory, policy
// tables are several MB per machine) competing for the host cache; measured
// on the fig7-thresholds sweep, gangs of ~4 beat both width 2 and width 21.
const maxGangMachines = 4

// RunBatched executes jobs like Run, but runs same-workload KindSim
// families in lockstep batches. Use it for sweep-shaped batches (many
// configurations per workload); singleton families and non-sim jobs fall
// through to the scalar path unchanged.
func (p *Pool) RunBatched(ctx context.Context, jobs []Job) ([]Result, error) {
	norm, err := p.normalizeJobs(jobs)
	if err != nil {
		return nil, err
	}
	entries, dedupped, mineJobs, mine := p.claimAll(norm)

	// Partition this call's claimed jobs into batch families and the
	// scalar remainder. Grouping happens after normalization, so two
	// spellings of one workload land in the same family, and after
	// claiming, so cells already owned elsewhere never execute twice.
	type family struct {
		jobs    []Job
		entries []*entry
	}
	var scalarJobs []Job
	var scalarEntries []*entry
	fams := make(map[workload.Config]*family)
	var order []*family
	for k, j := range mineJobs {
		if j.Kind != KindSim {
			scalarJobs = append(scalarJobs, j)
			scalarEntries = append(scalarEntries, mine[k])
			continue
		}
		f := fams[j.Workload]
		if f == nil {
			f = &family{}
			fams[j.Workload] = f
			order = append(order, f)
		}
		f.jobs = append(f.jobs, j)
		f.entries = append(f.entries, mine[k])
	}
	var wg sync.WaitGroup
	for _, f := range order {
		if len(f.jobs) < 2 {
			scalarJobs = append(scalarJobs, f.jobs...)
			scalarEntries = append(scalarEntries, f.entries...)
			continue
		}
		wg.Add(1)
		go func(f *family) {
			defer wg.Done()
			p.executeBatch(ctx, f.jobs, f.entries)
		}(f)
	}
	p.dispatch(ctx, scalarJobs, scalarEntries)
	wg.Wait()
	return p.gather(ctx, norm, entries, dedupped)
}

// executeBatch resolves one family through the same claim → store-Get →
// execute → store-Put lifecycle execute applies to one job, at family
// granularity: per-cell store hits publish immediately and shrink the
// batch to its misses, and the misses run as lockstep gangs of up to
// maxGangMachines — each gang under its own worker slot, so a wide family
// exploits the pool's parallelism exactly as its cells would have
// individually, while still sharing the workload's once-decoded op table.
func (p *Pool) executeBatch(ctx context.Context, jobs []Job, entries []*entry) {
	missJobs := make([]Job, 0, len(jobs))
	missEntries := make([]*entry, 0, len(jobs))
	var missKeys []string
	for i, j := range jobs {
		if p.persist != nil {
			key := JobKey(j)
			if res, ok := p.persist.Get(key); ok {
				p.mu.Lock()
				p.stats.StoreHits++
				p.done++
				p.mu.Unlock()
				entries[i].res = res
				entries[i].storeHit = true
				close(entries[i].ready)
				p.progress()
				continue
			}
			missKeys = append(missKeys, key)
		}
		missJobs = append(missJobs, j)
		missEntries = append(missEntries, entries[i])
	}
	switch len(missJobs) {
	case 0:
		return
	case 1:
		// A family of one miss is a scalar job. (execute re-consults the
		// store; the extra read is cheap and keeps one code path.)
		p.execute(ctx, missJobs[0], missEntries[0], nil)
		return
	}
	if p.persist == nil {
		missKeys = make([]string, len(missJobs))
	}
	var wg sync.WaitGroup
	for lo := 0; lo < len(missJobs); lo += maxGangMachines {
		hi := min(lo+maxGangMachines, len(missJobs))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			p.executeGang(ctx, missJobs[lo:hi], missEntries[lo:hi], missKeys[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
}

// executeGang runs one gang of a batch family — up to maxGangMachines
// store-miss cells — as a single sim.RunBatch pass under one worker slot,
// then records and publishes each cell exactly as the scalar path would.
func (p *Pool) executeGang(ctx context.Context, jobs []Job, entries []*entry, keys []string) {
	failAll := func(err error) {
		for i := range jobs {
			p.fail(jobs[i], entries[i], err)
		}
	}
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		failAll(ctx.Err())
		return
	}
	defer func() { <-p.sem }()
	if err := ctx.Err(); err != nil {
		failAll(err)
		return
	}
	w, err := p.Workload(jobs[0].Workload)
	if err != nil {
		// Deterministic failure, shared by every cell of the family.
		failAll(err)
		return
	}
	// BatchThreads decodes the table once per workload (concurrent gangs
	// block on the same sync.Once); only the decoding gang sees a nonzero
	// fresh count, so the stat is counted exactly once however many gangs
	// share the table.
	threads, decoded := w.BatchThreads()
	machines := make([]*sim.Machine, len(jobs))
	for i, j := range jobs {
		policy, pref := buildPolicy(j.Policy, w)
		machines[i] = sim.New(j.Machine, policy, pref, threads)
	}
	results, rerr := sim.RunBatch(ctx, machines, 0)
	if rerr != nil {
		failAll(rerr)
		return
	}
	var served uint64
	for i, j := range jobs {
		res := Result{Sim: results[i]}
		if j.Machine.TrackReuse && machines[i].Reuse() != nil {
			res.ReuseGlobal = machines[i].Reuse().Global()
			res.ReusePerType = machines[i].Reuse().PerType()
		}
		if p.persist != nil {
			p.persist.Put(keys[i], res)
		}
		served += results[i].Instructions
		e := entries[i]
		e.res = res
		close(e.ready)
	}
	p.retire(machines...)
	p.mu.Lock()
	if p.persist != nil {
		p.stats.StorePuts += len(jobs)
	}
	p.stats.JobsExecuted += len(jobs)
	p.stats.JobsBatched += len(jobs)
	p.stats.BatchesExecuted++
	p.stats.Instructions += served
	p.stats.BatchOpsDecoded += decoded
	p.stats.BatchOpsServed += served
	p.done += len(jobs)
	p.mu.Unlock()
	p.progress()
}
