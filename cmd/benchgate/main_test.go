package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: slicc/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkMachineRun/base-16         	       5	 221508045 ns/op	  15421476 instr/s	 4490329 B/op	     359 allocs/op
BenchmarkMachineRun/slicc-16        	       4	 260007174 ns/op	  13142892 instr/s	 4632249 B/op	     832 allocs/op
PASS
pkg: slicc/internal/runner
BenchmarkTinyCell-16                	      20	  10724931 ns/op	        93.24 cells/s
BenchmarkTinyCell-16                	      20	  11584312 ns/op	        86.33 cells/s
PASS
`

const sampleBaseline = `{
  "points": [
    {
      "benchmarks": {
        "BenchmarkMachineRun/base": { "ns_op": 350569454, "instr_s": 9743279 }
      }
    },
    {
      "benchmarks": {
        "BenchmarkMachineRun/base": { "ns_op": 221508045, "instr_s": 15421476 },
        "BenchmarkMachineRun/slicc": { "ns_op": 260007174, "instr_s": 13142892 },
        "BenchmarkTinyCell": { "cells_s": 93.24 }
      }
    }
  ]
}`

// sampleStoreBench is concatenated output of the root-package store-path
// benches and the internal/store micro benches — BENCH_STORE.json's shape.
const sampleStoreBench = `pkg: slicc
BenchmarkStoreColdRun-16    	       3	  50053181 ns/op	 7394033 B/op	   13398 allocs/op
BenchmarkStoreWarmRun-16    	      12	     94437 ns/op	   28897 B/op	     485 allocs/op
PASS
pkg: slicc/internal/store
BenchmarkPut-16             	   10000	    110289 ns/op	  37.14 MB/s	    5671 B/op	      15 allocs/op
BenchmarkGetHit-16          	  130000	      8921 ns/op	 459.12 MB/s	    5720 B/op	      10 allocs/op
BenchmarkGetHitMem-16       	 9000000	       121 ns/op	33851.20 MB/s	       0 B/op	       0 allocs/op
BenchmarkStats/quiescent-16 	 1300000	       873 ns/op
BenchmarkStats/scanning-16  	    1000	   1178546 ns/op
PASS
pkg: slicc/internal/server
BenchmarkServerWarmGet/uncached-16     	   80000	     14832 ns/op	    9321 B/op	      63 allocs/op
BenchmarkServerWarmGet/cached-16       	  400000	      2716 ns/op	    1544 B/op	      18 allocs/op
BenchmarkServerWarmGet/notmodified-16  	  500000	      2231 ns/op	    1322 B/op	      16 allocs/op
PASS
pkg: slicc/internal/runner
BenchmarkStoredDecode/fresh-2          	   16104	     69810 ns/op	   21256 B/op	     456 allocs/op
BenchmarkStoredDecode/primed-2         	  326644	      3837 ns/op	    1244 B/op	       9 allocs/op
PASS
`

const sampleStoreBaseline = `{
  "points": [
    {
      "benchmarks": {
        "BenchmarkStoreColdRun": { "ns_op": 50053181 },
        "BenchmarkStoreWarmRun": { "ns_op": 94437 },
        "store.BenchmarkPut": { "ns_op": 110289, "mb_s": 37.14 },
        "store.BenchmarkGetHit": { "ns_op": 8921, "mb_s": 459.12 }
      }
    }
  ]
}`

func loadFloors(t *testing.T, docs ...string) map[string]benchResult {
	t.Helper()
	floors := map[string]benchResult{}
	for _, doc := range docs {
		if err := latestFloors([]byte(doc), floors); err != nil {
			t.Fatal(err)
		}
	}
	return floors
}

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if v := got["BenchmarkMachineRun/base"]["instr/s"]; v != 15421476 {
		t.Fatalf("base instr/s = %v, want 15421476 (GOMAXPROCS suffix must be stripped)", v)
	}
	// -count repeats keep the best run per metric direction: the higher
	// rate and the lower time.
	if v := got["BenchmarkTinyCell"]["cells/s"]; v != 93.24 {
		t.Fatalf("tiny cells/s = %v, want best-of-runs 93.24", v)
	}
	if v := got["BenchmarkTinyCell"]["ns/op"]; v != 10724931 {
		t.Fatalf("tiny ns/op = %v, want best-of-runs 10724931", v)
	}
	if _, ok := got["BenchmarkMachineRun/base"]["B/op"]; ok {
		t.Fatal("B/op is not a gated metric")
	}
}

func TestParseBenchStoreMetrics(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleStoreBench))
	if err != nil {
		t.Fatal(err)
	}
	if v := got["BenchmarkStoreWarmRun"]["ns/op"]; v != 94437 {
		t.Fatalf("warm ns/op = %v", v)
	}
	if v := got["BenchmarkPut"]["MB/s"]; v != 37.14 {
		t.Fatalf("put MB/s = %v", v)
	}
}

func TestLatestFloors(t *testing.T) {
	floors := loadFloors(t, sampleBaseline)
	// The LATEST point recording a benchmark wins.
	if v := floors["BenchmarkMachineRun/base"]["instr/s"]; v != 15421476 {
		t.Fatalf("base floor = %v, want the later point's 15421476", v)
	}
	if v := floors["BenchmarkTinyCell"]["cells/s"]; v != 93.24 {
		t.Fatalf("tiny floor = %v, want 93.24", v)
	}
}

func TestLatestFloorsMergesBaselinesAndAliasesPrefixes(t *testing.T) {
	floors := loadFloors(t, sampleBaseline, sampleStoreBaseline)
	// Both files contribute (comma-separated -baseline merges them)...
	if _, ok := floors["BenchmarkMachineRun/base"]; !ok {
		t.Fatal("first baseline lost in merge")
	}
	if v := floors["BenchmarkStoreWarmRun"]["ns/op"]; v != 94437 {
		t.Fatalf("warm floor = %v", v)
	}
	// ...and "store."-prefixed names gate the bare names parseBench emits.
	if v := floors["BenchmarkPut"]["MB/s"]; v != 37.14 {
		t.Fatalf("store.BenchmarkPut alias floor = %v, want 37.14", v)
	}
	if v := floors["store.BenchmarkPut"]["MB/s"]; v != 37.14 {
		t.Fatal("prefixed name itself must stay resolvable")
	}
}

func TestGate(t *testing.T) {
	results, _ := parseBench(strings.NewReader(sampleBench))
	floors := loadFloors(t, sampleBaseline)

	var out strings.Builder
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 4.0}); n != 0 {
		t.Fatalf("clean run failed %d gate(s):\n%s", n, out.String())
	}

	// A collapsed rate must fail: drop base to half its floor-with-tolerance.
	results["BenchmarkMachineRun/base"]["instr/s"] = 15421476 * 0.3
	out.Reset()
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 4.0}); n != 1 {
		t.Fatalf("regressed run reported %d failures, want 1:\n%s", n, out.String())
	}

	// A blown-up time must fail its ceiling: 6x the recorded ns/op is past
	// the 5x the default time tolerance allows.
	results["BenchmarkMachineRun/base"]["instr/s"] = 15421476
	results["BenchmarkMachineRun/base"]["ns/op"] = 221508045 * 6
	out.Reset()
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 4.0}); n != 1 {
		t.Fatalf("slow run reported %d failures, want 1:\n%s", n, out.String())
	}
	results["BenchmarkMachineRun/base"]["ns/op"] = 221508045

	// Unknown benchmarks pass (no recorded floor yet).
	delete(floors, "BenchmarkTinyCell")
	out.Reset()
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 4.0}); n != 0 {
		t.Fatalf("unknown benchmark failed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "no recorded floor") {
		t.Fatalf("missing no-floor note:\n%s", out.String())
	}
}

func TestGateWarmSpeedup(t *testing.T) {
	results, _ := parseBench(strings.NewReader(sampleStoreBench))
	floors := loadFloors(t, sampleStoreBaseline)

	var out strings.Builder
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 4.0, minWarmSpeedup: 20}); n != 0 {
		t.Fatalf("clean store run failed %d gate(s):\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "warm-store speedup") {
		t.Fatalf("warm-speedup check not reported:\n%s", out.String())
	}

	// The win this gate protects is ~500x; a warm run degraded to 10x cold
	// (store effectively bypassed) must fail even though absolute times,
	// with their generous host tolerance, could still pass.
	results["BenchmarkStoreWarmRun"]["ns/op"] = results["BenchmarkStoreColdRun"]["ns/op"] / 10
	out.Reset()
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 1000, minWarmSpeedup: 20}); n != 1 {
		t.Fatalf("degraded warm run reported %d failures, want 1:\n%s", n, out.String())
	}

	// Missing series is a failure, not a silent pass.
	delete(results, "BenchmarkStoreWarmRun")
	out.Reset()
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 1000, minWarmSpeedup: 20}); n != 1 {
		t.Fatalf("missing warm series reported %d failures, want 1:\n%s", n, out.String())
	}
}

func TestGateMemSpeedup(t *testing.T) {
	results, _ := parseBench(strings.NewReader(sampleStoreBench))
	floors := loadFloors(t, sampleStoreBaseline)

	// Sample: disk hit 8921 ns vs mem hit 121 ns, ~74x — passes >= 5x.
	var out strings.Builder
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 4.0, minMemSpeedup: 5}); n != 0 {
		t.Fatalf("clean mem-tier run failed %d gate(s):\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "mem-tier hit speedup") {
		t.Fatalf("mem-speedup check not reported:\n%s", out.String())
	}

	// A mem hit degraded to disk speed (tier silently disabled) must fail
	// even though its absolute time would pass any host tolerance.
	results["BenchmarkGetHitMem"]["ns/op"] = results["BenchmarkGetHit"]["ns/op"] * 0.5
	out.Reset()
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 1000, minMemSpeedup: 5}); n != 1 {
		t.Fatalf("degraded mem tier reported %d failures, want 1:\n%s", n, out.String())
	}

	// Missing series fails loudly.
	delete(results, "BenchmarkGetHitMem")
	out.Reset()
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 1000, minMemSpeedup: 5}); n != 1 {
		t.Fatalf("missing mem series reported %d failures, want 1:\n%s", n, out.String())
	}
}

func TestGateStatsSpeedup(t *testing.T) {
	results, _ := parseBench(strings.NewReader(sampleStoreBench))
	floors := loadFloors(t, sampleStoreBaseline)

	// Sample: a 512-entry listing 1178546 ns vs one stat 873 ns, 1350x.
	var out strings.Builder
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 4.0, minStatsSpeedup: 20}); n != 0 {
		t.Fatalf("clean stats run failed %d gate(s):\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "quiescent stats speedup") {
		t.Fatalf("stats-speedup check not reported:\n%s", out.String())
	}

	// Stats listing the directory again on every call must fail even
	// though a millisecond would pass any host's absolute tolerance.
	results["BenchmarkStats/quiescent"]["ns/op"] = results["BenchmarkStats/scanning"]["ns/op"]
	out.Reset()
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 1000, minStatsSpeedup: 20}); n != 1 {
		t.Fatalf("quiescent Stats at listing cost reported %d failures, want 1:\n%s", n, out.String())
	}

	// Missing series fails loudly.
	delete(results, "BenchmarkStats/scanning")
	out.Reset()
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 1000, minStatsSpeedup: 20}); n != 1 {
		t.Fatalf("missing stats series reported %d failures, want 1:\n%s", n, out.String())
	}
}

func TestGateDecodeSpeedup(t *testing.T) {
	results, _ := parseBench(strings.NewReader(sampleStoreBench))
	floors := loadFloors(t, sampleStoreBaseline)

	// Sample: a fresh decode 69810 ns vs a primed one 3837 ns, 18x.
	var out strings.Builder
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 4.0, minDecodeSpeedup: 8}); n != 0 {
		t.Fatalf("clean decode run failed %d gate(s):\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "primed decode speedup") {
		t.Fatalf("decode-speedup check not reported:\n%s", out.String())
	}

	// Every entry paying for its type graph again must fail.
	results["BenchmarkStoredDecode/primed"]["ns/op"] = results["BenchmarkStoredDecode/fresh"]["ns/op"]
	out.Reset()
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 1000, minDecodeSpeedup: 8}); n != 1 {
		t.Fatalf("primed decode at fresh cost reported %d failures, want 1:\n%s", n, out.String())
	}

	// Missing series fails loudly.
	delete(results, "BenchmarkStoredDecode/fresh")
	out.Reset()
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 1000, minDecodeSpeedup: 8}); n != 1 {
		t.Fatalf("missing decode series reported %d failures, want 1:\n%s", n, out.String())
	}
}

func TestGateRespCacheSpeedup(t *testing.T) {
	results, _ := parseBench(strings.NewReader(sampleStoreBench))
	floors := loadFloors(t, sampleStoreBaseline)

	// Sample: uncached 14832 ns vs cached 2716 / 304 2231 — both >= 5x.
	var out strings.Builder
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 4.0, minRespSpeedup: 5}); n != 0 {
		t.Fatalf("clean response-cache run failed %d gate(s):\n%s", n, out.String())
	}
	for _, want := range []string{"response-cache speedup", "not-modified speedup"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in report:\n%s", want, out.String())
		}
	}

	// The flag gates BOTH ratios: a slow 304 path alone must fail.
	results["BenchmarkServerWarmGet/notmodified"]["ns/op"] =
		results["BenchmarkServerWarmGet/uncached"]["ns/op"] * 0.5
	out.Reset()
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 1000, minRespSpeedup: 5}); n != 1 {
		t.Fatalf("degraded 304 path reported %d failures, want 1:\n%s", n, out.String())
	}

	// Missing sub-benchmarks fail both ratio checks loudly.
	delete(results, "BenchmarkServerWarmGet/uncached")
	out.Reset()
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 1000, minRespSpeedup: 5}); n != 2 {
		t.Fatalf("missing uncached series reported %d failures, want 2:\n%s", n, out.String())
	}
}

func TestGateTinyFixedShare(t *testing.T) {
	const tiny = `pkg: slicc/internal/runner
BenchmarkTinyCell-2   	      40	  21450033 ns/op	        93.24 cells/s	         0.2210 fixed_share
BenchmarkTinyCell-2   	      40	  22950033 ns/op	        87.15 cells/s	         0.2630 fixed_share
PASS
`
	results, err := parseBench(strings.NewReader(tiny))
	if err != nil {
		t.Fatal(err)
	}
	// -count 2 keeps the best of each metric: the lower share.
	if got := results["BenchmarkTinyCell"]["fixed_share"]; got != 0.2210 {
		t.Fatalf("fixed_share = %v, want the lower run's 0.2210", got)
	}
	floors := loadFloors(t, `{"points":[{"benchmarks":{"BenchmarkTinyCell":{"cells_s":90,"fixed_share":0.22}}}]}`)

	var out strings.Builder
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 4.0, maxTinyFixedShare: 0.35}); n != 0 {
		t.Fatalf("clean tiny-cell run failed %d gate(s):\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "tiny-cell fixed share 0.221") {
		t.Fatalf("missing fixed-share verdict:\n%s", out.String())
	}

	// Fixed costs creeping back past the ceiling fail, whatever the host.
	out.Reset()
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 4.0, maxTinyFixedShare: 0.2}); n != 1 {
		t.Fatalf("share above the ceiling reported %d failures, want 1:\n%s", n, out.String())
	}

	// A missing series fails loudly.
	delete(results, "BenchmarkTinyCell")
	results["BenchmarkOther"] = benchResult{"ns/op": 1}
	out.Reset()
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 4.0, maxTinyFixedShare: 0.35}); n != 1 {
		t.Fatalf("missing tiny-cell series reported %d failures, want 1:\n%s", n, out.String())
	}
}

func TestGateRunShare(t *testing.T) {
	const bench = `pkg: slicc/internal/sim
BenchmarkMachineRun/base-2    	       3	 176322651 ns/op	  19371850 instr/s	         0.6719 run_share
BenchmarkMachineRun/slicc-2   	       3	 195327767 ns/op	  17486997 instr/s	         0.6719 run_share
PASS
`
	results, err := parseBench(strings.NewReader(bench))
	if err != nil {
		t.Fatal(err)
	}
	floors := loadFloors(t, `{"points":[{"benchmarks":{"BenchmarkMachineRun/base":{"instr_s":19000000,"run_share":0.6719}}}]}`)

	var out strings.Builder
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 4.0, minRunShare: 0.65}); n != 0 {
		t.Fatalf("clean run failed %d gate(s):\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "quiet-run share 0.672") {
		t.Fatalf("missing run-share verdict:\n%s", out.String())
	}

	// The count is exact, so the floor may sit close under it: a loop that
	// retires fewer instructions in runs fails on any host.
	out.Reset()
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 4.0, minRunShare: 0.7}); n != 1 {
		t.Fatalf("share below the floor reported %d failures, want 1:\n%s", n, out.String())
	}

	// A missing series fails loudly.
	delete(results, "BenchmarkMachineRun/base")
	out.Reset()
	if n := gate(&out, results, floors, gates{tol: 0.35, timeTol: 4.0, minRunShare: 0.65}); n != 1 {
		t.Fatalf("missing base series reported %d failures, want 1:\n%s", n, out.String())
	}
}
