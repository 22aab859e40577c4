// Command benchmark is the repository's one benchmark: four workloads over
// the whole system — the experiment grid, a sweep through sliccd, the same
// sweep through a distributed control plane and worker fleet, and warm
// reads — each run in its own process, measured end to end with tracing
// off, and layer by layer in a separate traced run. BENCHMARK.json declares
// the workloads and metrics; README.md says why each is there.
//
//	bash benchmark/run.sh --workload grid_cold --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all                 # every workload, both modes
//	bash benchmark/run.sh --agree                        # do two runs of the same code agree?
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics of the run's mode. The exit code is non-zero when
// a correctness check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: grid_cold, sweep_tiny_serve, fleet_tiny, warm_reads, or all (each in its own process)")
		seed     = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds  = fs.Float64("seconds", 0, "length of the timed region (default: BENCHMARK.json's run_seconds)")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
		agree    = fs.Bool("agree", false, "run every workload twice and compare the runs against BENCHMARK.json's bounds")
		warmDir  = fs.String("warm-store", "", "internal, warm_reads' set-up in a process of its own: run the sweep spec on stdin cold into this store directory and print its result")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return fail(fmt.Errorf("GOMAXPROCS %d exceeds the host's %d cores: the generator must not oversubscribe the host it measures", runtime.GOMAXPROCS(0), runtime.NumCPU()))
	}
	if *warmDir != "" {
		if err := warmStoreChild(*warmDir, os.Stdin, stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}

	if *agree {
		return agreeMode(spec, *seed, *seconds, stdout, stderr)
	}
	if *workload == "all" {
		return allMode(spec, *seed, *seconds, stdout, stderr)
	}
	if _, ok := workloads[*workload]; !ok {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	res, err := execute(context.Background(), root, spec, *workload, *seed, *seconds, *trace != 0, sizeFull, stdout)
	if err != nil {
		return fail(err)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the run's last output line, in the driver's shape.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload in this process, prints its report and its
// result line to out, and returns the result.
func execute(ctx context.Context, root string, spec *benchSpec, workload string, seed int64, seconds float64, traced bool, sz size, out io.Writer) (*result, error) {
	baseGoroutines := runtime.NumGoroutine()
	r := &run{
		root: root, host: readHostInfo(root),
		workload: workload, seed: seed, seconds: seconds, size: sz, out: out,
		e2e: newMetricSet(spec.EndToEnd), layer: newMetricSet(spec.PerLayer),
	}
	if traced {
		r.rec = newRecorder()
	}
	fmt.Fprintf(out, "workload %s  seed %d  seconds %g  trace %t  size %s\n", workload, seed, seconds, traced, sz.name)
	fmt.Fprintf(out, "host: nproc %d, GOMAXPROCS %d, %s, %s, commit %s\n", r.host.NProc, r.host.GOMAXPROCS, r.host.CPUModel, r.host.GoVersion, r.host.Commit)
	fmt.Fprintf(out, "generator: one process, at most %d concurrent simulations, client connections and worker slots\n", r.host.GOMAXPROCS)

	if sz.preflight {
		if err := r.preflight(); err != nil {
			return nil, err
		}
	}
	if err := workloads[workload](ctx, r); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}

	leaked := leakedGoroutines(baseGoroutines)
	r.check("no goroutine outlives shutdown", leaked == 0, "%d goroutines still running after every Close", leaked)
	if err := r.notePeakRSS(); err != nil {
		return nil, err
	}

	correct := r.reportChecks()
	if r.attempted == 0 {
		r.attempted = 1
	}
	if !correct && r.failed == 0 {
		// A failed check that no pass owned up to taints the whole run: it
		// zeroes nothing silently.
		r.failed = r.attempted
	}
	if r.failed > 0 {
		correct = false
	}
	failedShare := float64(r.failed) / float64(r.attempted)
	if traced {
		r.layer.set("process.goroutines_leaked", float64(leaked), 0)
		r.layer.set("process.peak_rss_mb", r.peakRSS, 0)
		r.layer.set("failed_share", failedShare, 0)
	}
	for _, m := range []*metricSet{r.e2e, r.layer} {
		if len(m.errs) > 0 {
			return nil, m.errs[0]
		}
	}
	if !traced {
		// An end-to-end metric left unset (a pass failed) reads 0, and a
		// run that could not measure is not a correct run.
		for _, d := range spec.EndToEnd {
			if _, ok := r.e2e.vals[d.Name]; !ok {
				correct = false
			}
		}
	}

	reported := r.e2e
	if traced {
		reported = r.layer
		fmt.Fprintln(out, "end-to-end metrics of this traced run (for reference; measure them with --trace 0):")
		r.e2e.print(out, spec.EndToEnd, true)
		r.printBudget()
		r.printCPU()
		path := filepath.Join(root, "benchmark", "out", "trace-"+workload+".json")
		if err := r.writeTrace(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "trace written to %s\n", path)
	}
	fmt.Fprintln(out, "metrics:")
	reported.print(out, spec.decls(traced), false)

	res := &result{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultMetric{}}
	for _, d := range spec.decls(traced) {
		res.Metrics[d.Name] = resultMetric{Value: reported.vals[d.Name].v, Unit: d.Unit}
	}
	fmt.Fprintf(out, "failed_share %g (%d of %d operations)\n", failedShare, r.failed, r.attempted)
	fmt.Fprintf(out, "peak_rss_mb %.1f (VmHWM at the end of the measured passes)\n", r.peakRSS)
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

// print lists the set's metrics in declaration order: name, value, unit
// and the sample count behind the value. With onlySet, metrics the run did
// not measure are skipped rather than shown as 0.
func (m *metricSet) print(out io.Writer, decls []metricDecl, onlySet bool) {
	for _, d := range decls {
		v, ok := m.vals[d.Name]
		if !ok && onlySet {
			continue
		}
		fmt.Fprintf(out, "  %-34s %16.6g %-6s", d.Name, v.v, d.Unit)
		if v.n > 0 {
			fmt.Fprintf(out, " n=%d", v.n)
		}
		fmt.Fprintln(out)
	}
}

// reportChecks prints each correctness check once, with how often it held,
// and returns whether all did.
func (r *run) reportChecks() bool {
	type tally struct {
		ok, failed int
		detail     string
	}
	byName := map[string]*tally{}
	var names []string
	for _, c := range r.checks {
		t := byName[c.name]
		if t == nil {
			t = &tally{}
			byName[c.name] = t
			names = append(names, c.name)
		}
		if c.ok {
			t.ok++
		} else {
			t.failed++
		}
		if t.detail == "" || (!c.ok && t.failed == 1) {
			t.detail = c.detail
		}
	}
	all := true
	fmt.Fprintln(r.out, "checks:")
	for _, name := range names {
		t := byName[name]
		verdict := "ok"
		if t.failed > 0 {
			verdict, all = "FAILED", false
		}
		fmt.Fprintf(r.out, "  %-6s %s (%d/%d): %s\n", verdict, name, t.ok, t.ok+t.failed, t.detail)
	}
	return all
}

// printCPU prints the traced pass's CPU profile by package: the few that
// account for most samples, the detail behind the <layer>.cpu_share metrics.
func (r *run) printCPU() {
	if len(r.cpuPackages) == 0 {
		return
	}
	pkgs := make([]string, 0, len(r.cpuPackages))
	for p := range r.cpuPackages {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return r.cpuPackages[pkgs[i]] > r.cpuPackages[pkgs[j]] })
	fmt.Fprintln(r.out, "cpu profile of the traced pass, flat samples by package (top 12):")
	for _, p := range pkgs[:min(12, len(pkgs))] {
		fmt.Fprintf(r.out, "  %-34s %6.2f %%  -> %s\n", p, 100*r.cpuPackages[p], profiledLayer(p))
	}
}

// printBudget prints the per-cell layer budget the replay measured.
func (r *run) printBudget() {
	if len(r.budget) == 0 {
		return
	}
	fmt.Fprintln(r.out, "per-cell layer budget (hop-by-hop replay of sampled cells, mean per cell):")
	for _, b := range r.budget {
		fmt.Fprintf(r.out, "  %-22s %12.1f us %6.2f %%\n", b.Hop, b.MeanUS, 100*b.Share)
	}
}

func (r *run) writeTrace(path string) error {
	tf := traceFile{Host: r.host, Workload: r.workload, Seed: r.seed, Size: r.size.name, Budget: r.budget, Metrics: map[string]float64{}}
	for name, v := range r.layer.vals {
		tf.Metrics[name] = v.v
	}
	return r.rec.write(path, tf)
}
