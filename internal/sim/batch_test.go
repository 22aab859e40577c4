package sim_test

// Differential tests for lockstep batching: RunBatch must produce results
// bit-identical to each machine's own scalar Run — across policy families,
// machine features (the event-horizon differential matrix, policyMatrix),
// mixed configurations inside one batch, quantum sizes,
// and the workload's shared decoded-op table (BatchThreads) versus the
// scalar per-machine sources.

import (
	"context"
	"reflect"
	"testing"

	"slicc/internal/sched"
	"slicc/internal/sim"
	islicc "slicc/internal/slicc"
	"slicc/internal/workload"
)

// runBatchAgainstScalar runs every cell twice — once inside a single
// RunBatch pass over the workload's shared decoded table, once alone on
// the scalar path over the workload's own sources — and requires deeply
// equal results per cell. The comparison therefore covers the lockstep
// scheduler, the quantum boundaries, and BatchThreads' table in one shot.
func runBatchAgainstScalar(t *testing.T, w *workload.Workload, quantum uint64, cells []matrixCase) {
	t.Helper()
	batchThreads, _ := w.BatchThreads()
	machines := make([]*sim.Machine, len(cells))
	for i, c := range cells {
		machines[i] = c.machine(batchThreads)
	}
	got, err := sim.RunBatch(context.Background(), machines, quantum)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	for i, c := range cells {
		want := c.machine(w.Threads()).Run()
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: batched result diverges from scalar:\n got: %+v\nwant: %+v", c.name, got[i], want)
		}
	}
}

func TestBatchMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is not short")
	}
	// The whole matrix runs as ONE mixed batch: heterogeneous core counts,
	// policies, observers and an aborting cell interleaved in one pass.
	w := tinyWorkload(t)
	runBatchAgainstScalar(t, w, 0, policyMatrix(w))
}

// TestBatchMatchesScalarScenarios repeats the check over the scenario
// workload families, whose phase changes and skew exercise scheduling
// patterns TPC-C does not.
func TestBatchMatchesScalarScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is not short")
	}
	family := []matrixCase{
		{"base", sim.Config{Cores: 8},
			func() sim.Policy { return sched.NewBaseline() }, nil},
		{"slicc", sim.Config{Cores: 8},
			func() sim.Policy { return islicc.New(islicc.DefaultConfig(islicc.Oblivious)) }, nil},
		{"slicc-sw", sim.Config{Cores: 4},
			func() sim.Policy { return islicc.New(islicc.DefaultConfig(islicc.SW)) }, nil},
		{"steps", sim.Config{Cores: 4},
			func() sim.Policy { return sched.NewSTEPS() }, nil},
	}
	for _, kind := range []workload.Kind{workload.Phased, workload.Skewed, workload.Microservice} {
		t.Run(kind.String(), func(t *testing.T) {
			w := workload.New(workload.Config{Kind: kind, Threads: 8, Seed: 7, Scale: 0.02})
			runBatchAgainstScalar(t, w, 0, family)
		})
	}
}

// TestBatchQuantumInvariance pins the quantum-boundary claim directly: the
// rotation granularity must be invisible in the results, from one
// instruction per turn to effectively run-to-completion.
func TestBatchQuantumInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is not short")
	}
	w := tinyWorkload(t)
	cells := []matrixCase{
		{"base", sim.Config{Cores: 8},
			func() sim.Policy { return sched.NewBaseline() }, nil},
		{"slicc", sim.Config{Cores: 4},
			func() sim.Policy { return islicc.New(islicc.DefaultConfig(islicc.Oblivious)) }, nil},
	}
	for _, quantum := range []uint64{1, 257, 1 << 40} {
		runBatchAgainstScalar(t, w, quantum, cells)
	}
}

// TestBatchCancel verifies RunBatch's cancellation contract: ctx.Err() is
// returned and unfinished machines report aborted partial results.
func TestBatchCancel(t *testing.T) {
	w := tinyWorkload(t)
	threads, _ := w.BatchThreads()
	cells := []matrixCase{
		{"a", sim.Config{Cores: 4}, func() sim.Policy { return sched.NewBaseline() }, nil},
		{"b", sim.Config{Cores: 8}, func() sim.Policy { return sched.NewBaseline() }, nil},
	}
	machines := make([]*sim.Machine, len(cells))
	for i, c := range cells {
		machines[i] = c.machine(threads)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := sim.RunBatch(ctx, machines, 0)
	if err != context.Canceled {
		t.Fatalf("RunBatch on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if len(results) != len(cells) {
		t.Fatalf("got %d partial results, want %d", len(results), len(cells))
	}
	for i, r := range results {
		if !r.Aborted {
			t.Errorf("machine %d: partial result not marked aborted", i)
		}
	}
}

// TestBatchSteadyStateAllocs asserts the lockstep loop does not allocate
// per instruction: batch runs differing by ~320k instructions must
// allocate the same within a small constant.
func TestBatchSteadyStateAllocs(t *testing.T) {
	w := workload.New(workload.Config{Kind: workload.TPCC1, Threads: 8, Seed: 5, Scale: 0.05})
	threads, _ := w.BatchThreads()
	run := func(max uint64) func() {
		return func() {
			ms := []*sim.Machine{
				sim.New(sim.Config{Cores: 4, MaxInstructions: max}, sched.NewBaseline(), nil, threads),
				sim.New(sim.Config{Cores: 8, MaxInstructions: max}, sched.NewBaseline(), nil, threads),
			}
			if _, err := sim.RunBatch(context.Background(), ms, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(0)() // warm anything one-time
	short := testing.AllocsPerRun(5, run(40_000))
	long := testing.AllocsPerRun(5, run(200_000))
	if diff := long - short; diff > 100 {
		t.Fatalf("batch loop allocates: %.0f extra allocs over 320k extra instructions (short %.0f, long %.0f)",
			diff, short, long)
	}
}
