package slicc

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sort"

	"slicc/internal/experiments"
	"slicc/internal/runner"
	"slicc/internal/store"
)

// ExperimentTable is a formatted experiment result (one table or figure
// panel from the paper's evaluation).
type ExperimentTable struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Format renders the table with aligned columns.
func (t ExperimentTable) Format(w io.Writer) {
	it := experiments.Table{Title: t.Title, Note: t.Note, Header: t.Header, Rows: t.Rows}
	it.Format(w)
}

func fromInternal(ts ...experiments.Table) []ExperimentTable {
	out := make([]ExperimentTable, len(ts))
	for i, t := range ts {
		out[i] = ExperimentTable{Title: t.Title, Note: t.Note, Header: t.Header, Rows: t.Rows}
	}
	return out
}

// one adapts a single-table experiment to the runner signature.
func one(f func(experiments.Options) (experiments.Table, error)) func(experiments.Options) ([]ExperimentTable, error) {
	return func(o experiments.Options) ([]ExperimentTable, error) {
		t, err := f(o)
		if err != nil {
			return nil, err
		}
		return fromInternal(t), nil
	}
}

// static adapts a simulation-free table to the runner signature.
func static(f func() experiments.Table) func(experiments.Options) ([]ExperimentTable, error) {
	return func(experiments.Options) ([]ExperimentTable, error) {
		return fromInternal(f()), nil
	}
}

// experimentRunners maps experiment ids to their implementations.
var experimentRunners = map[string]func(experiments.Options) ([]ExperimentTable, error){
	"fig1": func(o experiments.Options) ([]ExperimentTable, error) {
		ts, err := experiments.Figure1(o)
		if err != nil {
			return nil, err
		}
		return fromInternal(ts...), nil
	},
	"fig2":    one(experiments.Figure2),
	"fig3":    one(experiments.Figure3),
	"fig7":    one(experiments.Figure7),
	"fig8":    one(experiments.Figure8),
	"fig9":    one(experiments.Figure9),
	"fig10":   one(experiments.Figure10),
	"fig11":   one(experiments.Figure11),
	"bpki":    one(experiments.BPKI),
	"tlb":     one(experiments.TLBEffects),
	"steps":   one(experiments.RelatedWork),
	"scaling": one(experiments.Scaling),
	"table1":  static(experiments.Table1),
	"table2":  static(experiments.Table2),
	"table3":  static(experiments.Table3),
}

// ExperimentIDs lists the available experiment identifiers in stable order.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(experimentRunners))
	for id := range experimentRunners {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// EngineOptions configures an experiment engine.
type EngineOptions struct {
	// Workers bounds concurrent simulations (default GOMAXPROCS).
	Workers int
	// Progress, if set, is called as simulations are scheduled and
	// completed, with engine-lifetime counts. It may be called from
	// multiple goroutines.
	Progress func(done, scheduled int)
	// StoreDir, when non-empty, backs the engine's memoization with the
	// persistent result store rooted at this directory (created if
	// needed): results are written there as simulations complete and
	// identical simulations — in any later process, or concurrently in
	// another process sharing the directory — are served from disk
	// instead of executing. See docs/SERVICE.md for the store's layout
	// and on-disk format.
	StoreDir string
	// StoreMaxBytes bounds the store directory's size (0 = unlimited);
	// least-recently-used entries are evicted past the budget.
	StoreMaxBytes int64
	// StoreMemBytes bounds the store's sharded in-memory hot tier
	// (0 = disabled): repeated reads of the same result are served from
	// memory with no disk I/O or checksum work. Safe to enable alongside
	// other processes sharing the directory — entries are immutable, so
	// the tier can never serve stale bytes.
	StoreMemBytes int64
	// Logger receives engine lifecycle events (store evictions today).
	// Nil is silent. Request-scoped logging and tracing travel through
	// the ctx passed to Run/Sweep/Experiment instead, so library use
	// stays zero-configuration.
	Logger *slog.Logger
	// Remote, when set, executes sweep cells on a distributed worker
	// fleet instead of the local pool: a cell that misses the persistent
	// store is handed to Remote (keyed by its content key, payload the
	// canonical job JSON) and its result read back from the store once
	// the fleet resolves it. Requires StoreDir — the shared store is the
	// result transport. Only Sweep/SweepStream route through Remote;
	// single simulations and experiments stay local, so the control
	// plane keeps answering them even with no workers connected.
	Remote RemoteRunner
}

// RemoteRunner executes jobs on a remote fleet; see EngineOptions.Remote.
// Execute must return once the job's result is in the engine's store
// under key, or with an error when the job cannot be resolved (a
// dead-lettered poison job's error carries its retry chain). sliccd's
// queue dispatcher is the production implementation.
type RemoteRunner interface {
	Execute(ctx context.Context, key string, job []byte) error
}

// EngineStats snapshots an engine's work counters.
type EngineStats struct {
	// SimsRequested / SimsExecuted count requested versus actually
	// executed simulations; the difference went to the dedup cache or the
	// persistent store.
	SimsRequested, SimsExecuted int
	// DedupHits counts simulations served by an identical earlier (or
	// concurrent) one.
	DedupHits int
	// StoreHits / StorePuts count simulations served from / recorded to
	// the persistent store (zero without StoreDir). At any quiescent
	// point SimsRequested == SimsExecuted + DedupHits + StoreHits +
	// SimsRemote.
	StoreHits, StorePuts int
	// SimsRemote counts simulations resolved by the distributed worker
	// fleet (EngineOptions.Remote) rather than executed locally; the
	// store carried their results back.
	SimsRemote int
	// WorkloadsBuilt / WorkloadHits count workload-synthesis cache
	// misses/hits.
	WorkloadsBuilt, WorkloadHits int
	// InstructionsSimulated is the total instruction count across executed
	// simulations (store/dedup hits add nothing).
	InstructionsSimulated uint64
	// OpStreamGeneratorPasses counts thread op-stream generator runs
	// started for simulations; OpStreamsRecorded the thread streams
	// recorded in memory for later replays. A workload that the jobs of one
	// submission share is generated exactly once per thread (passes ==
	// threads x distinct workloads for a sweep of such workloads); a lone
	// Run generates once and records nothing.
	OpStreamGeneratorPasses, OpStreamsRecorded uint64
	// MachinesRecycled counts executed simulations whose machine was built
	// on cache storage recycled from an earlier one rather than freshly
	// allocated.
	MachinesRecycled int
}

// Engine runs experiments on a shared worker pool. Simulations are
// deduplicated by content and memoized for the engine's lifetime, so
// experiments that share configurations (every figure re-measures the
// 32KB/32KB baseline machine) pay for them once. Table output is
// byte-identical for any worker count. An Engine is safe for concurrent
// use; cross-experiment dedup works even between concurrent Experiment
// calls.
type Engine struct {
	pool  *runner.Pool
	store *store.Store // nil without EngineOptions.StoreDir
	// remote executes sweep cells on the worker fleet when set
	// (EngineOptions.Remote); nil runs everything locally.
	remote runner.Remote
}

// NewEngine builds an experiment engine. The error is non-nil only when
// EngineOptions.StoreDir is set and the store cannot be opened. Callers
// that configure a store (or replay trace containers) should Close the
// engine when done with it.
func NewEngine(o EngineOptions) (*Engine, error) {
	if o.Remote != nil && o.StoreDir == "" {
		return nil, fmt.Errorf("slicc: EngineOptions.Remote requires StoreDir (the shared store carries remote results back)")
	}
	ropts := runner.Options{Workers: o.Workers, OnProgress: o.Progress}
	var st *store.Store
	if o.StoreDir != "" {
		var err error
		st, err = store.Open(o.StoreDir, store.Options{MaxBytes: o.StoreMaxBytes, MemBytes: o.StoreMemBytes, Logger: o.Logger})
		if err != nil {
			return nil, fmt.Errorf("slicc: opening result store: %w", err)
		}
		ropts.Memo = runner.NewStoreMemo(st)
	}
	e := &Engine{pool: runner.New(ropts), store: st}
	if o.Remote != nil {
		e.remote = o.Remote
	}
	return e, nil
}

// Close releases the engine's long-lived resources: cached trace-container
// file handles (which otherwise stay open for the engine's lifetime) and
// the persistent result store. Call it after outstanding Run/Experiment
// calls return; the engine must not be used afterwards.
func (e *Engine) Close() error {
	err := e.pool.Close()
	if e.store != nil {
		if serr := e.store.Close(); err == nil {
			err = serr
		}
	}
	return err
}

// Run executes one simulation on the engine's shared pool, with the
// engine's full memoization stack: an identical simulation already executed
// by this engine — or present in the persistent store — does not run again.
func (e *Engine) Run(ctx context.Context, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	rs, err := e.pool.Run(ctx, []runner.Job{cfg.job()})
	if err != nil {
		return Result{}, err
	}
	return cfg.result(rs[0]), nil
}

// Compare runs the same benchmark under several policies on the engine's
// shared pool and returns results in order (see CompareContext).
func (e *Engine) Compare(ctx context.Context, base Config, policies ...Policy) ([]Result, error) {
	return compareOn(ctx, e.pool, base, policies...)
}

// ExperimentOptions parameterizes ExperimentWith beyond the quick/seed
// pair of Experiment.
type ExperimentOptions struct {
	// Quick shrinks workloads ~20x for smoke runs.
	Quick bool
	// Seed drives workload synthesis (default 1).
	Seed int64
	// TracePath, when set, replays every simulated benchmark from the
	// recorded trace container at this path instead of its synthetic
	// workload (see Config.TracePath and docs/TRACES.md). Benchmark-
	// labelled rows then all describe the recorded workload.
	TracePath string
}

// Experiment regenerates one of the paper's tables/figures by id ("fig1"
// .. "fig11", "table1".."table3", "bpki") or one of the extension studies
// ("tlb", "steps", "scaling"). Quick mode shrinks workloads by roughly 20x
// for smoke runs; full mode reproduces the EXPERIMENTS.md numbers. The
// seed defaults to 1. Cancelling ctx aborts in-flight simulations and
// returns ctx.Err().
func (e *Engine) Experiment(ctx context.Context, id string, quick bool, seed int64) ([]ExperimentTable, error) {
	return e.ExperimentWith(ctx, id, ExperimentOptions{Quick: quick, Seed: seed})
}

// ExperimentWith is Experiment with the full option set — most notably
// replaying a recorded trace through the experiment grid via TracePath.
func (e *Engine) ExperimentWith(ctx context.Context, id string, o ExperimentOptions) ([]ExperimentTable, error) {
	run, ok := experimentRunners[id]
	if !ok {
		return nil, fmt.Errorf("slicc: unknown experiment %q (have %v)", id, ExperimentIDs())
	}
	// Simulation-free experiments (table1-3) never consult ctx; check it
	// here so cancellation behaves uniformly across ids.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return run(experiments.Options{Quick: o.Quick, Seed: o.Seed, TracePath: o.TracePath, Ctx: ctx, Pool: e.pool})
}

// StoreStats snapshots the engine's persistent result store and its
// in-memory hot tier (mirrors store.Stats).
type StoreStats struct {
	// Entries / Bytes describe the shared store directory: entry-file
	// count and their total size.
	Entries int
	Bytes   int64
	// DiskEvictions counts entries this engine's store evicted from disk
	// under its StoreMaxBytes budget (process-local).
	DiskEvictions int64
	// Memory-tier occupancy and counters (zero when StoreMemBytes is
	// unset); see store.Stats for field semantics.
	MemEntries   int
	MemBytes     int64
	MemEvictions int64
	MemHits      int64
	MemMisses    int64
	NegativeHits int64
}

// StoreDir returns the engine's store directory, "" when the engine runs
// without a persistent store.
func (e *Engine) StoreDir() string {
	if e.store == nil {
		return ""
	}
	return e.store.Dir()
}

// StoreStats reports the engine's store directory's entry count and total
// bytes, and this engine's eviction and memory-tier counters. ok is false
// when the engine has no store (EngineOptions.StoreDir unset). An unchanged
// directory costs one stat(2) — the store reuses its last listing while the
// directory's mtime stands, exact across processes (store package docs,
// "Stats") — and a directory being written costs a listing, O(entries): fit
// for a stats endpoint or metrics scrape, not for a per-job path.
func (e *Engine) StoreStats() (stats StoreStats, ok bool) {
	if e.store == nil {
		return StoreStats{}, false
	}
	st, err := e.store.Stats()
	mirror := StoreStats{
		DiskEvictions: st.DiskEvictions,
		MemEntries:    st.MemEntries,
		MemBytes:      st.MemBytes,
		MemEvictions:  st.MemEvictions,
		MemHits:       st.MemHits,
		MemMisses:     st.MemMisses,
		NegativeHits:  st.NegativeHits,
	}
	if err != nil {
		// A concurrently deleted or unreadable directory reports as
		// empty; the health endpoint is where degradation is surfaced.
		return mirror, true
	}
	mirror.Entries, mirror.Bytes = st.Entries, st.Bytes
	return mirror, true
}

// Stats returns the engine's dedup/cache counters.
func (e *Engine) Stats() EngineStats {
	s := e.pool.Stats()
	return EngineStats{
		SimsRequested:         s.JobsRequested,
		SimsExecuted:          s.JobsExecuted,
		DedupHits:             s.DedupHits,
		StoreHits:             s.StoreHits,
		StorePuts:             s.StorePuts,
		SimsRemote:            s.JobsRemote,
		WorkloadsBuilt:        s.WorkloadsBuilt,
		WorkloadHits:          s.WorkloadHits,
		InstructionsSimulated: s.Instructions,

		OpStreamGeneratorPasses: s.OpStreamGeneratorPasses,
		OpStreamsRecorded:       s.OpStreamsRecorded,
		MachinesRecycled:        s.MachinesRecycled,
	}
}

// Experiment is the original serial-era entry point, kept as a wrapper: it
// runs the experiment on a fresh engine with default parallelism and no
// cancellation. Use an Engine to share the dedup cache across experiments
// or to control worker count, persistence and cancellation.
func Experiment(id string, quick bool, seed int64) ([]ExperimentTable, error) {
	eng, err := NewEngine(EngineOptions{})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	return eng.Experiment(context.Background(), id, quick, seed)
}
