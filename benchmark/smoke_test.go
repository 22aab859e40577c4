package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the program when warm_reads
// runs itself once more, with --warm-store, to warm its store in a process
// of its own.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--warm-store" {
		os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at smoke size, end to end and traced, and
// holds the program to BENCHMARK.json: each run must pass its own
// correctness checks and emit exactly the declared metric names and units
// for its mode, and every declared per-layer metric must be measured (be
// non-zero) on at least one workload — except the counters that are zero
// when nothing goes wrong, and the CPU-profile shares, which at smoke size
// rest on too few samples to reach every package.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program implements %d", len(spec.Workloads), len(workloads))
	}
	zeroWhenHealthy := map[string]bool{
		"queue.expirations": true, "queue.failures": true, "queue.dead": true,
		"worker.jobs_failed": true, "process.goroutines_leaked": true, "failed_share": true,
	}
	measured := map[string]bool{}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res, err := execute(context.Background(), root, spec, w.Name, 1, 2, traced, sizeSmoke, &out)
			if err != nil {
				t.Fatalf("%s (traced %t): %v\n%s", w.Name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %t): correct %t, %d of %d failed\n%s", w.Name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			decls := spec.decls(traced)
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s (traced %t): %d metrics emitted, %d declared", w.Name, traced, len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s (traced %t): declared metric %s not emitted", w.Name, traced, d.Name)
					continue
				}
				if m.Unit != d.Unit {
					t.Errorf("%s: metric %s has unit %q, declared %q", w.Name, d.Name, m.Unit, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, d.Name, m.Value)
				}
				if m.Value != 0 {
					measured[d.Name] = true
				}
			}
			// The last line of the report is the result, as the driver reads it.
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var last result
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
				t.Errorf("%s (traced %t): last output line is not the result object: %v", w.Name, traced, err)
			}
		}
	}
	for _, d := range spec.PerLayer {
		if !measured[d.Name] && !zeroWhenHealthy[d.Name] && !strings.HasSuffix(d.Name, ".cpu_share") {
			t.Errorf("per-layer metric %s is 0 on every workload", d.Name)
		}
	}
}
