package runner

// BenchmarkTinyCell measures what a tiny cold cell costs beyond its
// simulation: each iteration is a fresh Pool running the baseline and
// SLICC-SW over one never-seen 4-thread, scale-0.05 workload — one
// workload pair of the service benchmark's tiny spec — on one worker, so
// wall-clock is a plain sum. It reports cells/s and fixed_share = 1 −
// Σ RunContext ÷ wall: the share spent on everything that is not the
// instruction loop (workload and machine construction, policy set-up,
// result assembly, storage hand-back). The first replay's generator pass
// runs inside RunContext — the machine pulls it batch by batch — so it is
// simulation time here, not fixed cost.
//
// Regenerate the BENCH_SIM.json point with:
//
//	go test -run '^$' -bench BenchmarkTinyCell -benchtime 40x -count 3 ./internal/runner/

import (
	"context"
	"testing"
	"time"

	islicc "slicc/internal/slicc"
	"slicc/internal/telemetry"
	"slicc/internal/workload"
)

func BenchmarkTinyCell(b *testing.B) {
	var simTime time.Duration
	ctx := telemetry.WithTracer(context.Background(), &telemetry.Tracer{
		OnSpan: func(name string, d time.Duration) {
			if name == "sim.run" {
				simTime += d // one worker: spans never overlap
			}
		},
	})
	pair := func(seed int64) {
		wl := workload.Config{Kind: workload.TPCC1, Threads: 4, Seed: seed, Scale: 0.05}
		jobs := []Job{
			{Workload: wl},
			{Workload: wl, Policy: PolicySpec{Kind: SLICC, SLICC: islicc.DefaultConfig(islicc.SW)}},
		}
		if _, err := New(Options{Workers: 1}).Run(ctx, jobs); err != nil {
			b.Fatal(err)
		}
	}
	pair(0) // the process's first cell builds the kind's code image
	simTime = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair(int64(i + 1))
	}
	b.StopTimer()
	if wall := b.Elapsed(); wall > 0 {
		b.ReportMetric(float64(2*b.N)/wall.Seconds(), "cells/s")
		b.ReportMetric(1-simTime.Seconds()/wall.Seconds(), "fixed_share")
	}
}
