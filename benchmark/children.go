package main

// -workload all and -agree: every workload runs in a process of its own, so
// none inherits another's heap, page cache warmth or peak RSS.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// child runs this binary once more for one workload and mode, copying its
// report to out, and returns its result line.
func child(workload string, seed int64, seconds float64, traced bool, out, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, out)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s (trace %s): %w", workload, trace, runErr)
		}
		return nil, fmt.Errorf("%s (trace %s): no result line: %w", workload, trace, err)
	}
	return &res, nil
}

// allMode runs every workload, end to end and then traced.
func allMode(spec *benchSpec, seed int64, seconds float64, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := child(w.Name, seed, seconds, traced, stdout, stderr)
			fmt.Fprintln(stdout)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				code = 2
			} else if !res.Correct && code == 0 {
				code = 1
			}
		}
	}
	return code
}

// exactCounts are the per-layer metrics that must repeat exactly between
// two runs of the same code at the same seed: simulated statistics and
// work counts, never timings.
var exactCounts = []string{
	"sim.instructions", "slicc.migrations", "workload.built", "workload.ops",
	"runner.jobs_executed", "runner.dedup_hits", "runner.store_hits", "runner.jobs_remote",
	"queue.enqueued", "store.entries",
}

// demoted are the per-layer metrics ISSUE 11 listed as end-to-end: they do
// not repeat within a tenth (peak RSS) or exist on one workload only (the
// read latencies), so they carry no bound. -agree still shows both runs'
// values, as the evidence for where they stand.
var demoted = []string{"process.peak_rss_mb", "server.read_p50_ms", "server.read_p99_ms"}

// agreeMode runs every workload twice back to back, in both modes, on the
// same build. It prints, per end-to-end metric, both values, how much worse
// the second is than the first, and the bound from BENCHMARK.json — a
// difference beyond the bound in either direction is a disagreement — and
// checks that the exact counts of the traced runs repeat. It is the tool
// for telling "unresolved" from "unchanged": a metric whose two runs of the
// same code disagree by more than its bound cannot show a regression.
func agreeMode(spec *benchSpec, seed int64, seconds float64, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range spec.Workloads {
		var e2e, layer [2]*result
		for i := range e2e {
			var err error
			if e2e[i], err = child(w.Name, seed, seconds, false, io.Discard, stderr); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 2
			}
			if layer[i], err = child(w.Name, seed, seconds, true, io.Discard, stderr); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 2
			}
			if !e2e[i].Correct || !layer[i].Correct {
				fmt.Fprintf(stdout, "%s: run %d failed its correctness checks\n", w.Name, i+1)
				code = 1
			}
		}
		fmt.Fprintf(stdout, "%s (seed %d)\n", w.Name, seed)
		for _, d := range spec.EndToEnd {
			a, b := e2e[0].Metrics[d.Name].Value, e2e[1].Metrics[d.Name].Value
			worse := worseBy(d, a, b)
			verdict := "agrees"
			if math.Abs(worse) > d.Bound {
				verdict, code = "DISAGREES", 1
			}
			fmt.Fprintf(stdout, "  %-14s %14.6g %14.6g %-5s differ by %+6.2f %% (+ is worse), bound %g %%: %s\n",
				d.Name, a, b, d.Unit, 100*worse, 100*d.Bound, verdict)
		}
		for _, name := range demoted {
			a, b := layer[0].Metrics[name], layer[1].Metrics[name]
			if a.Value == 0 && b.Value == 0 {
				continue
			}
			fmt.Fprintf(stdout, "  %-22s %14.6g %14.6g %-5s differ by %+6.2f %%, per-layer (traced runs): no bound\n",
				name, a.Value, b.Value, a.Unit, 100*(b.Value-a.Value)/a.Value)
		}
		for _, name := range exactCounts {
			a, b := layer[0].Metrics[name].Value, layer[1].Metrics[name].Value
			verdict := "repeats"
			if a != b {
				verdict, code = "DIFFERS", 1
			}
			fmt.Fprintf(stdout, "  %-22s %14.0f %14.0f count: %s\n", name, a, b, verdict)
		}
	}
	return code
}

// worseBy returns how much worse b is than a as a share of a, in the
// metric's own direction: positive means worse.
func worseBy(d metricDecl, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	rel := (b - a) / math.Abs(a)
	if d.Better == "higher" {
		return -rel
	}
	return rel
}
