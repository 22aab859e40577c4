// Package workload synthesizes the transaction traces the paper drives its
// simulator with. The real system traced Shore-MT running TPC-C and TPC-E
// (plus a Hadoop MapReduce job) under PIN; those traces are not available,
// so each benchmark is modeled as a *segment-structured* instruction stream
// calibrated to the properties Section 2 of the paper measures:
//
//   - Transaction instruction footprints span several 32KB L1-I caches
//     (TPC-C larger than TPC-E; MapReduce fits in one cache).
//   - Execution loops over a multi-segment body (the A-B-C-A pattern of
//     Figure 4), so L1-I misses are capacity misses with long-period reuse.
//   - Threads of the same transaction type share ~98% of their instruction
//     blocks but diverge on optional segments (Figure 3).
//   - Data accesses are dominated by compulsory misses (fresh row data)
//     with a reusable private working set and a small shared hot set with
//     ~45% stores (Section 5.5).
//
// All generation is deterministic per (workload seed, thread id): a thread's
// Source can be re-created any number of times and always replays the same
// stream, which is how one workload is compared across machine configs.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"slicc/internal/trace"
)

// Kind selects a benchmark.
type Kind int

// Benchmarks from Table 1, followed by the synthetic scenario families that
// extend the paper's workload set (see docs/WORKLOADS.md).
const (
	TPCC1     Kind = iota // TPC-C, 1 warehouse
	TPCC10                // TPC-C, 10 warehouses (larger data footprint)
	TPCE                  // TPC-E, 1000 customers
	MapReduce             // Hadoop/Mahout text analytics

	// Phased is a bursty phase-changing scenario: each transaction
	// alternates between large disjoint code phases, churning the cache
	// signatures SLICC learns (extension; scenarios.go).
	Phased
	// Skewed is a multi-tenant scenario with a Zipfian transaction mix:
	// one hot tenant dominates, a long tail supplies stray threads
	// (extension; scenarios.go).
	Skewed
	// Microservice is an RPC-fan-out scenario: many services with small
	// individual footprints that call into each other's stubs and a shared
	// runtime (extension; scenarios.go).
	Microservice

	// Recorded marks a workload replayed from a trace container rather
	// than synthesized; it is the Kind of workloads built by FromTraceFile.
	Recorded Kind = -1
)

var kindNames = [...]string{"TPC-C-1", "TPC-C-10", "TPC-E", "MapReduce", "Phased", "Skewed", "Microservice"}

func (k Kind) String() string {
	if k == Recorded {
		return "Recorded"
	}
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Kinds returns the paper's benchmark kinds in Table 1 / Figure 10 order.
// The experiment harness iterates these, so the paper's figures keep their
// exact shape; AllKinds adds the scenario extensions.
func Kinds() []Kind { return []Kind{TPCC1, TPCC10, TPCE, MapReduce} }

// ScenarioKinds returns the synthetic scenario families beyond the paper's
// benchmark set, in declaration order.
func ScenarioKinds() []Kind { return []Kind{Phased, Skewed, Microservice} }

// AllKinds returns every synthesizable workload kind: Table 1 first, then
// the scenario extensions.
func AllKinds() []Kind { return append(Kinds(), ScenarioKinds()...) }

// kindTokenNames are the canonical machine-readable kind names used by the
// CLIs, the sweep subsystem and the public slicc package (which keeps its
// Benchmark tokens in lockstep), indexed by Kind.
var kindTokenNames = [...]string{"tpcc1", "tpcc10", "tpce", "mapreduce", "phased", "skewed", "microservice"}

// kindTokens is the reverse of kindTokenNames, for ParseKind.
var kindTokens = func() map[string]Kind {
	m := make(map[string]Kind, len(kindTokenNames))
	for k, tok := range kindTokenNames {
		m[tok] = Kind(k)
	}
	return m
}()

// Token returns the kind's canonical machine-readable name (String returns
// the display name).
func (k Kind) Token() string {
	if k < 0 || int(k) >= len(kindTokenNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindTokenNames[k]
}

// ParseKind resolves a workload kind from its canonical token ("tpcc1",
// "phased", ...) or display name ("TPC-C-1"), case-insensitively.
func ParseKind(s string) (Kind, error) {
	ls := strings.ToLower(s)
	if k, ok := kindTokens[ls]; ok {
		return k, nil
	}
	for _, k := range AllKinds() {
		if strings.EqualFold(s, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown kind %q (have %s)", s, strings.Join(KindTokens(), ", "))
}

// KindTokens lists the canonical kind tokens in AllKinds order.
func KindTokens() []string {
	names := make([]string, 0, len(kindTokens))
	for _, k := range AllKinds() {
		names = append(names, k.Token())
	}
	return names
}

// Config parameterizes workload synthesis.
type Config struct {
	// Kind is the benchmark.
	Kind Kind
	// Threads is the number of tasks (transactions / map-reduce tasks).
	// The paper simulates 1K tasks; tests use fewer. Defaults per kind.
	Threads int
	// Seed drives all randomness (transaction mix, control-flow
	// divergence, data addresses).
	Seed int64
	// Scale multiplies per-transaction work (loop iterations). 1.0
	// reproduces the default calibration; tests may shrink it.
	Scale float64

	// TracePath, when non-empty, replays the recorded trace container at
	// this path instead of synthesizing anything; Kind, Threads, Seed and
	// Scale are ignored (the container fixes all of them). Build such
	// workloads with FromTraceFile.
	TracePath string
	// TraceDigest is the content digest (trace.FileDigest) of the file at
	// TracePath. The runner fills it in before using a Config as a cache
	// key, so memoization keys on the trace's *contents*: renaming a file
	// does not defeat dedup, and re-recording a file under the same name
	// does not replay stale results. Leave empty when declaring jobs.
	TraceDigest string
}

// WithDefaults returns the configuration with zero fields replaced by their
// defaults. It is idempotent; the runner's workload cache normalizes configs
// with it so that explicit and defaulted spellings of the same workload
// share one synthesis.
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.TracePath != "" {
		// A recorded workload is fully determined by the container, so the
		// canonical spelling zeroes every synthetic-only field: differently
		// spelled configs of the same replay share one cache entry.
		return Config{TracePath: c.TracePath, TraceDigest: c.TraceDigest}
	}
	if c.Threads == 0 {
		switch c.Kind {
		case MapReduce:
			c.Threads = 300 // the paper's 300 map/reduce tasks
		case Microservice:
			c.Threads = 256 // many small RPC handlers in flight
		default:
			c.Threads = 128
		}
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	return c
}

// Segment is a contiguous run of instruction blocks, the unit SLICC spreads
// across caches. Base is a block address (not byte address).
type Segment struct {
	ID     int
	Base   uint64 // block address of first block
	Blocks int
	Shared bool // part of the cross-type common pool (DB engine / OS code)
}

// optionalSeg is a segment executed with some probability per loop
// iteration; it produces the control-flow divergence of Figure 4's
// segment D.
type optionalSeg struct {
	seg  int
	prob float64
}

// TxnType models one transaction type: its code segments and the program
// shape that visits them.
type TxnType struct {
	Name   string
	Weight float64 // share of the transaction mix

	// Program shape, all values are indices into Workload.Segments.
	// Entry is the type-specific dispatch code executed first; SLICC-Pp
	// relies on it to fingerprint the type.
	Entry    []int
	Preamble []int // begin-transaction work (mostly shared pool)
	LoopBody []int // per-item work; this is the footprint SLICC spreads
	Optional []optionalSeg
	Epilogue []int // commit/log (mostly shared pool)

	// MinItems/MaxItems bound the per-transaction loop count.
	MinItems, MaxItems int

	// BlockRepeat is the probability that a block's instructions are
	// re-executed immediately (models short loops within basic blocks);
	// it calibrates baseline I-MPKI without changing the footprint.
	BlockRepeat float64

	// Data behaviour. Per-region store probabilities live in the
	// workload's dataProfile; the global store fraction lands near the
	// paper's 45% for the OLTP benchmarks.
	DataRate   float64 // fraction of instructions with a data access
	RowFrac    float64 // data accesses streaming fresh row data (compulsory)
	SharedFrac float64 // data accesses to the global hot set
	// the remainder hits the thread-private working set
}

// FootprintBlocks returns the static instruction footprint of the type in
// blocks (entry + preamble + loop + optional + epilogue, deduplicated).
func (t *TxnType) footprintBlocks(w *Workload) int {
	seen := map[int]struct{}{}
	add := func(idx int) {
		seen[idx] = struct{}{}
	}
	for _, s := range t.Entry {
		add(s)
	}
	for _, s := range t.Preamble {
		add(s)
	}
	for _, s := range t.LoopBody {
		add(s)
	}
	for _, o := range t.Optional {
		add(o.seg)
	}
	for _, s := range t.Epilogue {
		add(s)
	}
	total := 0
	for idx := range seen {
		total += w.Segments[idx].Blocks
	}
	return total
}

// codeImage is a benchmark's *code*: its segments, the transaction types'
// program shapes over them, and each segment's block execution order. It
// is the binary, so it depends on the Kind alone — not on the seed, thread
// count or scale, which only choose who runs what for how long — and is
// built once per Kind per process and shared read-only by every Workload
// of that kind.
type codeImage struct {
	name     string
	segments []Segment
	types    []TxnType
	// orders holds, per segment, the block execution order: the segment's
	// control-flow structure. Real code is not laid out in execution
	// order — basic blocks end in taken branches — so a segment is
	// executed as short sequential runs stitched together by jumps.
	orders [][]uint16
}

// images caches each synthesizable kind's code image.
var images [len(kindNames)]struct {
	once sync.Once
	img  codeImage
}

// imageFor returns kind's shared code image, building it on first use.
func imageFor(kind Kind) *codeImage {
	if kind < 0 || int(kind) >= len(images) {
		panic(fmt.Sprintf("workload: unknown kind %v", kind))
	}
	e := &images[kind]
	e.once.Do(func() {
		switch kind {
		case TPCC1, TPCC10:
			e.img = buildTPCC(kind)
		case TPCE:
			e.img = buildTPCE()
		case MapReduce:
			e.img = buildMapReduce()
		case Phased:
			e.img = buildPhased()
		case Skewed:
			e.img = buildSkewed()
		case Microservice:
			e.img = buildMicroservice()
		}
		e.img.orders = computeOrders(e.img.segments)
	})
	return &e.img
}

// Workload is a fully-specified benchmark instance.
type Workload struct {
	Name   string
	Kind   Kind
	Config Config
	// Segments, Types and orders are the kind's code image, shared with
	// every other Workload of the kind: read-only.
	Segments []Segment
	Types    []TxnType
	orders   [][]uint16

	threads []trace.Thread

	// oc memoizes thread op streams that are replayed repeatedly (see
	// sourceFor).
	oc opCache

	// container is the open trace file backing a Recorded workload (nil
	// for synthetic workloads). It is held for the workload's lifetime:
	// every thread's New streams from it.
	container *trace.File
}

// opCache memoizes synthetic threads' op streams. A stream is recorded
// *while a replay consumes it* (trace.Tee: generator output is appended to
// a delta-encoded buffer, ~3.5 bytes/op, as the machine pulls batches), so
// recording never costs a generator pass of its own, and every later
// replay — including one racing the recording — decodes from memory through
// the trace.BatchSource bulk path. Which replay records depends on what is
// known about the workload's future:
//
//   - By default the first New() of a thread runs the bare generator and
//     the *second* records: a single-pass consumer (trace capture, a lone
//     simulation) keeps the generator's constant memory and pays nothing,
//     and a thread that proves hot costs two generator passes.
//   - After ExpectReplays — the runner calls it when the jobs it was handed
//     name the workload more than once — the *first* New() records, so the
//     generator runs exactly once per thread.
//
// That is the experiment-harness shape (one pool-cached workload feeding
// dozens of simulations), where regenerating identical streams — two rand
// draws per op — dominated the cold simulation loop; the compact encoding
// keeps a whole quick-size workload within the last-level cache, so replays
// do not evict the simulator's own model state. Replays are byte-identical
// by construction: the recording is the generator's own output.
type opCache struct {
	mu sync.Mutex
	// budget is the remaining op count the cache may retain. A recording
	// reserves its stream's upper bound up front and returns the slack when
	// it completes, so the budget is never overshot. Quick experiment
	// workloads fit whole; a thread that does not fit stays on the
	// generator path for good.
	budget int64
	// expectReplays makes first replays record (see ExpectReplays).
	expectReplays bool
	// state is the per-thread ladder; rec[id], once set, supersedes it
	// with the thread's recording (in flight or complete).
	state []uint8
	rec   []*trace.Tee

	// passes counts generator runs started for replays; recorded counts
	// completed recordings (see OpStreamStats).
	passes, recorded uint64
}

// Per-thread ladder states, for threads without a recording.
const (
	ocFresh    uint8 = iota // never replayed
	ocReplayed              // replayed from the bare generator: record next time
	ocRejected              // over budget: on the generator path for good
)

// opCacheBudget bounds the op streams one workload retains (2^26 ops ≈
// 230MB encoded worst case). It is a var so tests can shrink it.
var opCacheBudget = int64(1) << 26

// encBytesPerOp sizes a recording's buffer from its op-count bound: a
// sequential fetch encodes in 2 bytes, a data access adds 6, and under a
// third of ops carry one.
const encBytesPerOp = 4

// ExpectReplays declares that the workload's threads will be replayed more
// than once, so each stream is recorded during its first replay instead of
// its second (see opCache). It is idempotent, safe for concurrent use, and
// a no-op for recorded workloads; threads already past their first replay
// are unaffected.
func (w *Workload) ExpectReplays() {
	w.oc.mu.Lock()
	w.oc.expectReplays = true
	w.oc.mu.Unlock()
}

// OpStreamStats reports how many generator passes the workload's replays
// have started and how many thread streams it has finished recording.
// Every thread replayed at least twice costs exactly one pass when
// ExpectReplays came first, two otherwise.
func (w *Workload) OpStreamStats() (generatorPasses, streamsRecorded uint64) {
	w.oc.mu.Lock()
	defer w.oc.mu.Unlock()
	return w.oc.passes, w.oc.recorded
}

// sourceFor returns thread id's op stream: a reader of its recording when
// one exists or is in flight, the deterministic generator otherwise —
// starting a recording around it when this replay is the one that records
// and the budget allows.
func (w *Workload) sourceFor(id, ti int, seed int64) trace.Source {
	oc := &w.oc
	oc.mu.Lock()
	if rec := oc.rec[id]; rec != nil {
		oc.mu.Unlock()
		return rec.Source()
	}
	oc.passes++
	state := oc.state[id]
	if state == ocRejected || (state == ocFresh && !oc.expectReplays) {
		oc.state[id] = max(state, ocReplayed)
		oc.mu.Unlock()
		return newThreadSource(w, id, ti, seed)
	}
	// The recording is set up under the lock: concurrent replays of this
	// thread must find it rather than start generators of their own.
	gen := newThreadSource(w, id, ti, seed)
	bound := gen.opBound()
	if bound > oc.budget {
		oc.state[id] = ocRejected
		oc.mu.Unlock()
		return gen
	}
	oc.budget -= bound
	rec := trace.NewTee(gen, int(bound)*encBytesPerOp, func(ops uint64) {
		oc.mu.Lock()
		oc.budget += bound - int64(ops)
		oc.recorded++
		oc.mu.Unlock()
	})
	oc.rec[id] = rec
	oc.mu.Unlock()
	return rec.Source()
}

// New synthesizes a workload. Trace-backed configs (TracePath set) have no
// synthesis step; build them with FromTraceFile instead.
func New(cfg Config) *Workload {
	if cfg.TracePath != "" {
		panic("workload: New called with a trace config; use FromTraceFile")
	}
	cfg = cfg.withDefaults()
	img := imageFor(cfg.Kind)
	w := &Workload{
		Name: img.name, Kind: cfg.Kind, Config: cfg,
		Segments: img.segments, Types: img.types, orders: img.orders,
	}
	w.assignThreads()
	return w
}

// computeOrders derives each segment's block execution order: sequential
// fall-through runs with geometric length (mean ~1.4 blocks, so a next-line
// prefetcher covers only the paper's modest fraction of fetches), shuffled
// by a per-segment deterministic source.
func computeOrders(segments []Segment) [][]uint16 {
	const fallThrough = 0.15 // probability the next block is spatially next
	orders := make([][]uint16, len(segments))
	for i, seg := range segments {
		rng := rand.New(rand.NewSource(0xC0DE + int64(seg.ID)*7919))
		// Split [0..Blocks) into sequential runs.
		var runs [][]uint16
		var run []uint16
		for b := 0; b < seg.Blocks; b++ {
			run = append(run, uint16(b))
			if rng.Float64() >= fallThrough {
				runs = append(runs, run)
				run = nil
			}
		}
		if len(run) > 0 {
			runs = append(runs, run)
		}
		rng.Shuffle(len(runs), func(a, b int) { runs[a], runs[b] = runs[b], runs[a] })
		order := make([]uint16, 0, seg.Blocks)
		for _, r := range runs {
			order = append(order, r...)
		}
		orders[i] = order
	}
	return orders
}

// Threads returns the workload's thread (transaction) list in arrival order.
func (w *Workload) Threads() []trace.Thread { return w.threads }

// TypeFootprintBytes returns the instruction footprint of type ti in bytes.
func (w *Workload) TypeFootprintBytes(ti int) int {
	return w.Types[ti].footprintBlocks(w) * blockBytes
}

// SharedRanges returns the [lo,hi) block-address ranges of the shared
// (DB-engine/OS) code pool, merged into maximal runs. CSP-style policies
// use these as their system-code classification.
func (w *Workload) SharedRanges() [][2]uint64 {
	var ranges [][2]uint64
	for _, seg := range w.Segments {
		if !seg.Shared {
			continue
		}
		lo, hi := seg.Base, seg.Base+uint64(seg.Blocks)
		if n := len(ranges); n > 0 && ranges[n-1][1] == lo {
			ranges[n-1][1] = hi
			continue
		}
		ranges = append(ranges, [2]uint64{lo, hi})
	}
	return ranges
}

// assignThreads draws the transaction mix and builds thread descriptors.
func (w *Workload) assignThreads() {
	rng := rand.New(rand.NewSource(w.Config.Seed))
	total := 0.0
	for i := range w.Types {
		total += w.Types[i].Weight
	}
	w.threads = make([]trace.Thread, w.Config.Threads)
	for id := 0; id < w.Config.Threads; id++ {
		r := rng.Float64() * total
		ti := 0
		for acc := 0.0; ti < len(w.Types); ti++ {
			acc += w.Types[ti].Weight
			if r < acc {
				break
			}
		}
		if ti == len(w.Types) {
			ti--
		}
		seed := threadSeed(w.Config.Seed, id)
		wi, typ, tid := w, ti, id
		w.threads[id] = trace.Thread{
			ID:       id,
			Type:     ti,
			TypeName: w.Types[ti].Name,
			New: func() trace.Source {
				return wi.sourceFor(tid, typ, seed)
			},
		}
	}
	w.oc.budget = opCacheBudget
	w.oc.state = make([]uint8, len(w.threads))
	w.oc.rec = make([]*trace.Tee, len(w.threads))
}

// threadSeed decorrelates per-thread streams (splitmix64-style).
func threadSeed(seed int64, id int) int64 {
	z := uint64(seed) + uint64(id+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
