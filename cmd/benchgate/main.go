// Command benchgate is the CI performance-regression gate: it reads `go
// test -bench` output on stdin, compares every benchmark metric it knows
// against the latest baseline point that records it, and exits non-zero
// when a metric regresses past the tolerance.
//
//	go test -run '^$' -bench 'BenchmarkMachineRun|BenchmarkSweepBatch' \
//	    -benchtime 3x ./internal/sim/ ./internal/sweep/ |
//	  benchgate -baseline BENCH_SIM.json -tolerance 0.5 -min-batch-ratio 0.75
//
//	go test -run '^$' -bench 'BenchmarkStore(Cold|Warm)Run' -benchtime 3x . ;
//	go test -run '^$' -bench . ./internal/store/ ;  # concatenated on stdin
//	  benchgate -baseline BENCH_STORE.json -min-warm-speedup 20
//
// Two metric directions are gated. Rates (instr/s, cells/s, MB/s) are
// higher-is-better and fail below floor = recorded * (1 - tolerance);
// times (ns/op) are lower-is-better and fail above ceiling = recorded *
// (1 + time-tolerance). Absolute numbers vary across hosts — CI runners
// are slower and noisier than the dev box the baselines are recorded on —
// so both tolerances are deliberately generous: the gate catches falling
// off a cliff (a fast path silently disabled, an accidental O(n) in the
// hot loop), not percent-level drift.
//
// The ratio checks are host-independent, comparing two series from the
// same run on the same machine: -min-batch-ratio fails when the lockstep
// batch path regresses relative to the scalar path it must at least
// match, and -min-warm-speedup fails when a store-warmed run is no longer
// at least N times faster than a cold one — the guard on the store's
// whole reason to exist, and the contract crash/resume is built on.
// -min-mem-speedup holds the store's in-memory hot tier at N times a disk
// hit (store.BenchmarkGetHit vs BenchmarkGetHitMem), and
// -min-respcache-speedup holds both of sliccd's warm-GET fast paths —
// cached response bytes and If-None-Match 304s — at N times the uncached
// marshal (server.BenchmarkServerWarmGet sub-benchmarks).
// -min-stats-speedup holds store.Stats on an unchanged directory (one
// stat) at N times cheaper than the listing it replaces
// (store.BenchmarkStats quiescent vs scanning, 512 entries).
// -min-decode-speedup holds a stored result decoded by the result memo's
// primed gob decoder at N times cheaper than by a fresh decoder, which
// compiles the result's type graph again (runner.BenchmarkStoredDecode
// primed vs fresh, one real entry).
// -max-tiny-fixed-share is a host-independent ceiling rather than a ratio
// of two series: runner.BenchmarkTinyCell reports the share of a tiny
// cell's wall-clock spent outside the simulation loop (workload and machine
// construction, result handling), and the gate fails when it exceeds N.
// -min-run-share is its floor twin: sim.BenchmarkMachineRun/base reports the
// share of instructions the loop retired in quiet runs instead of stepping
// one by one — an exact count, the same on every host — and the gate fails
// when it falls below N (the run path silently off, or the line micro-cache
// excluding machines again).
//
// -baseline takes a comma-separated list of trajectory files. Baseline
// names may carry a "pkg." prefix (e.g. "store.BenchmarkPut" for
// ./internal/store) to disambiguate benchmarks from different packages;
// results match them by bare name.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

func main() {
	var g gates
	baseline := flag.String("baseline", "BENCH_SIM.json", "comma-separated benchmark trajectory file(s) holding the recorded baselines")
	flag.Float64Var(&g.tol, "tolerance", 0.35, "allowed fractional shortfall vs a recorded rate (0.35 = fail below 65%)")
	flag.Float64Var(&g.timeTol, "time-tolerance", 4.0, "allowed fractional slowdown vs a recorded ns/op (4.0 = fail above 5x)")
	flag.Float64Var(&g.minBatchRatio, "min-batch-ratio", 0, "minimum BenchmarkSweepBatch batched/scalar rate ratio (0 disables)")
	flag.Float64Var(&g.minWarmSpeedup, "min-warm-speedup", 0, "minimum BenchmarkStoreColdRun/BenchmarkStoreWarmRun ns/op ratio (0 disables)")
	flag.Float64Var(&g.minMemSpeedup, "min-mem-speedup", 0, "minimum BenchmarkGetHit/BenchmarkGetHitMem ns/op ratio — disk vs memory-tier store hit (0 disables)")
	flag.Float64Var(&g.minRespSpeedup, "min-respcache-speedup", 0, "minimum BenchmarkServerWarmGet uncached/cached and uncached/notmodified ns/op ratios (0 disables)")
	flag.Float64Var(&g.minStatsSpeedup, "min-stats-speedup", 0, "minimum BenchmarkStats scanning/quiescent ns/op ratio — store.Stats listing the directory vs reusing its last listing (0 disables)")
	flag.Float64Var(&g.minDecodeSpeedup, "min-decode-speedup", 0, "minimum BenchmarkStoredDecode fresh/primed ns/op ratio — a stored result decoded by a fresh gob decoder vs the memo's primed one (0 disables)")
	flag.Float64Var(&g.maxTinyFixedShare, "max-tiny-fixed-share", 0, "maximum BenchmarkTinyCell fixed_share — the share of a tiny cell's wall-clock spent outside Machine.RunContext (0 disables)")
	flag.Float64Var(&g.minRunShare, "min-run-share", 0, "minimum BenchmarkMachineRun/base run_share — the share of instructions retired in quiet runs (0 disables)")
	flag.Parse()

	floors := map[string]benchResult{}
	for _, path := range strings.Split(*baseline, ",") {
		data, err := os.ReadFile(strings.TrimSpace(path))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		if err := latestFloors(data, floors); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: parsing %s: %v\n", path, err)
			os.Exit(2)
		}
	}
	results, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark results on stdin")
		os.Exit(2)
	}
	failures := gate(os.Stdout, results, floors, g)
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d benchmark(s) below floor\n", failures)
		os.Exit(1)
	}
}

// benchResult is one benchmark line's gated metrics (unit → value), e.g.
// {"instr/s": 1.5e7, "ns/op": 2.2e8}.
type benchResult map[string]float64

// units maps every gated metric to its baseline-file key and direction.
// Rates are higher-is-better; ns/op and shares are lower-is-better.
var units = map[string]struct {
	key          string
	higherBetter bool
}{
	"instr/s": {"instr_s", true},
	"cells/s": {"cells_s", true},
	"MB/s":    {"mb_s", true},
	"ns/op":   {"ns_op", false},
	// A share of wall-clock (BenchmarkTinyCell's fixed_share), lower is
	// better; -max-tiny-fixed-share is its real gate.
	"fixed_share": {"fixed_share", false},
	// A share of instructions (BenchmarkMachineRun's run_share), higher is
	// better; -min-run-share is its real gate.
	"run_share": {"run_share", true},
}

// parseBench extracts benchmark names and their gated metrics from `go
// test -bench` output. A line looks like:
//
//	BenchmarkMachineRun/base-16  3  221508045 ns/op  15421476 instr/s  ...
//
// The -N GOMAXPROCS suffix is stripped so names match baseline keys.
func parseBench(r io.Reader) (map[string]benchResult, error) {
	out := map[string]benchResult{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		res := benchResult{}
		// fields[1] is the iteration count; after it come value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			if _, ok := units[fields[i+1]]; ok {
				res[fields[i+1]] = v
			}
		}
		if len(res) > 0 {
			// -count>1 repeats a benchmark; keep the best run in each
			// metric's direction (noise only makes results worse).
			if prev, ok := out[name]; ok {
				for u, v := range res {
					if units[u].higherBetter == (v > prev[u]) {
						prev[u] = v
					}
				}
			} else {
				out[name] = res
			}
		}
	}
	return out, sc.Err()
}

// latestFloors merges, for every benchmark name in the trajectory file,
// the metrics of the LAST point that records it — the baseline the next
// change is gated against — into floors. Prefixed names ("store.BenchmarkPut")
// are also indexed under their bare benchmark name, which is what
// parseBench produces; an explicit bare entry wins over an alias.
func latestFloors(data []byte, floors map[string]benchResult) error {
	var doc struct {
		Points []struct {
			// any, not float64: metric maps also carry "note" strings.
			Benchmarks map[string]map[string]any `json:"benchmarks"`
		} `json:"points"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	bare := map[string]bool{} // names recorded without a pkg prefix
	for _, p := range doc.Points {
		for name, metrics := range p.Benchmarks {
			res := benchResult{}
			for unit, u := range units {
				if v, ok := metrics[u.key].(float64); ok {
					res[unit] = v
				}
			}
			if len(res) == 0 {
				continue
			}
			floors[name] = res // later points overwrite earlier ones
			if strings.HasPrefix(name, "Benchmark") {
				bare[name] = true
			}
		}
	}
	for name, res := range floors {
		if i := strings.Index(name, ".Benchmark"); i > 0 {
			if alias := name[i+1:]; !bare[alias] {
				floors[alias] = res
			}
		}
	}
	return nil
}

// num renders a metric for the verdict table: whole numbers for rates and
// times, three decimals for the small ones (shares, single-digit rates).
func num(v float64) string {
	if v < 10 {
		return fmt.Sprintf("%.3f", v)
	}
	return fmt.Sprintf("%.0f", v)
}

// gates holds one benchgate run's thresholds, one field per flag: the two
// tolerances against recorded floors, then the host-independent checks,
// each disabled at 0.
type gates struct {
	tol, timeTol      float64
	minBatchRatio     float64
	minWarmSpeedup    float64
	minMemSpeedup     float64
	minRespSpeedup    float64
	minStatsSpeedup   float64
	minDecodeSpeedup  float64
	maxTinyFixedShare float64
	minRunShare       float64
}

// gate prints a verdict table and returns the failure count. Benchmarks
// with no recorded baseline pass (reported as such); the host-independent
// ratio checks run when their thresholds are > 0.
func gate(w io.Writer, results, floors map[string]benchResult, g gates) int {
	failures := 0
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	// Stable output order without importing sort's full machinery: small n.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, name := range names {
		for unit, got := range results[name] {
			base, ok := floors[name][unit]
			if !ok {
				fmt.Fprintf(w, "PASS  %s  %s %s (no recorded floor)\n", name, num(got), unit)
				continue
			}
			if units[unit].higherBetter {
				floor := base * (1 - g.tol)
				if got < floor {
					failures++
					fmt.Fprintf(w, "FAIL  %s  %s %s < floor %s (recorded %s, tolerance %.0f%%)\n",
						name, num(got), unit, num(floor), num(base), g.tol*100)
				} else {
					fmt.Fprintf(w, "PASS  %s  %s %s (floor %s)\n", name, num(got), unit, num(floor))
				}
			} else {
				ceiling := base * (1 + g.timeTol)
				if got > ceiling {
					failures++
					fmt.Fprintf(w, "FAIL  %s  %s %s > ceiling %s (recorded %s, tolerance %.0fx)\n",
						name, num(got), unit, num(ceiling), num(base), 1+g.timeTol)
				} else {
					fmt.Fprintf(w, "PASS  %s  %s %s (ceiling %s)\n", name, num(got), unit, num(ceiling))
				}
			}
		}
	}
	if g.minBatchRatio > 0 {
		b, okB := results["BenchmarkSweepBatch/batched"]["cells/s"]
		s, okS := results["BenchmarkSweepBatch/scalar"]["cells/s"]
		switch {
		case !okB || !okS:
			failures++
			fmt.Fprintf(w, "FAIL  batched/scalar ratio: BenchmarkSweepBatch series missing from input\n")
		case b < s*g.minBatchRatio:
			failures++
			fmt.Fprintf(w, "FAIL  batched/scalar ratio %.2f < %.2f (batched %.3f, scalar %.3f cells/s)\n",
				b/s, g.minBatchRatio, b, s)
		default:
			fmt.Fprintf(w, "PASS  batched/scalar ratio %.2f (>= %.2f)\n", b/s, g.minBatchRatio)
		}
	}
	if g.minWarmSpeedup > 0 {
		failures += speedup(w, results, "warm-store",
			"BenchmarkStoreColdRun", "BenchmarkStoreWarmRun", g.minWarmSpeedup)
	}
	if g.minMemSpeedup > 0 {
		failures += speedup(w, results, "mem-tier hit",
			"BenchmarkGetHit", "BenchmarkGetHitMem", g.minMemSpeedup)
	}
	if g.minRespSpeedup > 0 {
		failures += speedup(w, results, "response-cache",
			"BenchmarkServerWarmGet/uncached", "BenchmarkServerWarmGet/cached", g.minRespSpeedup)
		failures += speedup(w, results, "not-modified",
			"BenchmarkServerWarmGet/uncached", "BenchmarkServerWarmGet/notmodified", g.minRespSpeedup)
	}
	if g.minStatsSpeedup > 0 {
		failures += speedup(w, results, "quiescent stats",
			"BenchmarkStats/scanning", "BenchmarkStats/quiescent", g.minStatsSpeedup)
	}
	if g.minDecodeSpeedup > 0 {
		failures += speedup(w, results, "primed decode",
			"BenchmarkStoredDecode/fresh", "BenchmarkStoredDecode/primed", g.minDecodeSpeedup)
	}
	if g.maxTinyFixedShare > 0 {
		share, ok := results["BenchmarkTinyCell"]["fixed_share"]
		switch {
		case !ok:
			failures++
			fmt.Fprintf(w, "FAIL  tiny-cell fixed share: BenchmarkTinyCell missing from input\n")
		case share > g.maxTinyFixedShare:
			failures++
			fmt.Fprintf(w, "FAIL  tiny-cell fixed share %.3f > %.3f\n", share, g.maxTinyFixedShare)
		default:
			fmt.Fprintf(w, "PASS  tiny-cell fixed share %.3f (<= %.3f)\n", share, g.maxTinyFixedShare)
		}
	}
	if g.minRunShare > 0 {
		share, ok := results["BenchmarkMachineRun/base"]["run_share"]
		switch {
		case !ok:
			failures++
			fmt.Fprintf(w, "FAIL  quiet-run share: BenchmarkMachineRun/base missing from input\n")
		case share < g.minRunShare:
			failures++
			fmt.Fprintf(w, "FAIL  quiet-run share %.3f < %.3f\n", share, g.minRunShare)
		default:
			fmt.Fprintf(w, "PASS  quiet-run share %.3f (>= %.3f)\n", share, g.minRunShare)
		}
	}
	return failures
}

// speedup checks the host-independent ns/op ratio slow/fast >= min, both
// series coming from the same run on the same machine. Returns 1 on
// failure (either series missing, or ratio below min), 0 on pass.
func speedup(w io.Writer, results map[string]benchResult, label, slow, fast string, min float64) int {
	s, okS := results[slow]["ns/op"]
	f, okF := results[fast]["ns/op"]
	switch {
	case !okS || !okF || f <= 0:
		fmt.Fprintf(w, "FAIL  %s speedup: %s or %s missing from input\n", label, slow, fast)
		return 1
	case s/f < min:
		fmt.Fprintf(w, "FAIL  %s speedup %.1fx < %.1fx (%s %.0f, %s %.0f ns/op)\n",
			label, s/f, min, slow, s, fast, f)
		return 1
	default:
		fmt.Fprintf(w, "PASS  %s speedup %.1fx (>= %.1fx)\n", label, s/f, min)
		return 0
	}
}
