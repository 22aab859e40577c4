package sim_test

// Simulator hot-loop benchmarks: the BenchmarkMachineRun family measures
// cold single-simulation throughput (the cost every new scenario or trace
// pays before the result store can help) per scheduling policy. Each
// iteration builds a fresh machine — machines are single-use — and runs a
// small TPC-C workload to completion; instructions/sec is reported as the
// headline metric so trajectory points in BENCH_SIM.json are comparable
// across workload-size tweaks. run_share is the loop's own exact count
// beside it: the share of instructions retired in quiet runs rather than
// stepped one by one (sim.LoopStats) — deterministic, so cmd/benchgate
// holds it to a floor on any host (-min-run-share).
//
// Regenerate the BENCH_SIM.json point with:
//
//	go test -run '^$' -bench BenchmarkMachineRun -benchmem ./internal/sim/

import (
	"testing"

	"slicc/internal/sched"
	"slicc/internal/sim"
	islicc "slicc/internal/slicc"
	"slicc/internal/workload"
)

// benchWorkload returns a small but representative OLTP workload: enough
// threads to keep all 16 cores busy and a footprint that misses in the
// L1-I, so the benchmark exercises the directory, the NoC and the memory
// hierarchy, not just the fetch fast path.
func benchWorkload(b *testing.B) *workload.Workload {
	b.Helper()
	return workload.New(workload.Config{Kind: workload.TPCC1, Threads: 32, Seed: 1, Scale: 0.1})
}

// runMachine builds and runs one machine, returning the executed
// instruction count and how many of them quiet runs retired.
func runMachine(b *testing.B, w *workload.Workload, policy sim.Policy) (instr, runInstr uint64) {
	b.Helper()
	m := sim.New(sim.Config{}, policy, nil, w.Threads())
	r := m.Run()
	if r.ThreadsFinished != len(w.Threads()) {
		b.Fatalf("run finished %d of %d threads", r.ThreadsFinished, len(w.Threads()))
	}
	return r.Instructions, m.LoopStats().RunInstructions
}

func benchMachineRun(b *testing.B, newPolicy func() sim.Policy) {
	w := benchWorkload(b)
	// Two warmup runs settle the workload's op-stream cache (threads
	// materialize on their second replay), so iterations measure the
	// steady state an experiment batch runs in — one workload synthesis
	// feeding dozens of simulations.
	for i := 0; i < 2; i++ {
		runMachine(b, w, newPolicy())
	}
	var instr, runInstr uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, r := runMachine(b, w, newPolicy())
		instr += n
		runInstr += r
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
	}
	b.ReportMetric(float64(runInstr)/float64(instr), "run_share")
}

// BenchmarkMachineRun measures cold-run throughput per policy: the baseline
// scheduler (the pure hot-loop cost), STEPS (adds same-core context
// switches) and SLICC (adds bloom signatures, segment searches and
// migrations).
func BenchmarkMachineRun(b *testing.B) {
	b.Run("base", func(b *testing.B) {
		benchMachineRun(b, func() sim.Policy { return sched.NewBaseline() })
	})
	b.Run("steps", func(b *testing.B) {
		benchMachineRun(b, func() sim.Policy { return sched.NewSTEPS() })
	})
	b.Run("slicc", func(b *testing.B) {
		benchMachineRun(b, func() sim.Policy { return islicc.New(islicc.DefaultConfig(islicc.Oblivious)) })
	})
}
