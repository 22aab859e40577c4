// Command experiments regenerates the paper's tables and figures, and runs
// declarative parameter sweeps.
//
//	experiments -list
//	experiments -run fig11
//	experiments -run all -quick
//	experiments -run all -quick -j 8 -progress
//	experiments -run fig7 -out fig7.txt
//	experiments -sweep spec.json -store ./store
//	experiments -sweep spec.json -csv -out cells.csv
//	experiments -sweep spec.json -watch
//	echo '{"preset":"fig7-thresholds"}' | experiments -sweep -
//
// Experiments share one engine: their simulations run on -j workers,
// identical simulations are deduplicated across experiments, and the table
// output is byte-identical for any -j. A -sweep run expands the JSON spec
// (see EXPERIMENTS.md "Sweeps") into its cell cross-product on the same
// engine, so sweeps share dedup and the persistent store with everything
// else; a store-warmed rerun executes zero simulations.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"slicc"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiment ids and sweep presets, then exit")
		run      = flag.String("run", "all", "experiment id or 'all'")
		sweepPth = flag.String("sweep", "", "run the parameter sweep declared in this JSON spec file ('-' reads stdin) instead of -run")
		asCSV    = flag.Bool("csv", false, "with -sweep: emit the per-cell results as CSV")
		watch    = flag.Bool("watch", false, "with -sweep: print a progress line per finished cell on stderr (output is byte-identical)")
		quick    = flag.Bool("quick", false, "shrink workloads ~20x for a fast smoke run")
		seed     = flag.Int64("seed", 1, "workload seed")
		tracePth = flag.String("trace", "", "replay every benchmark from this recorded trace container (see docs/TRACES.md)")
		out      = flag.String("out", "", "write results to this file instead of stdout")
		asJSON   = flag.Bool("json", false, "emit JSON instead of aligned text tables")
		workers  = flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulation workers")
		progress = flag.Bool("progress", false, "report live simulation progress on stderr")
		storeDir = flag.String("store", "", "persist results in the content-addressed store at this directory; a warm store re-renders without simulating (see docs/SERVICE.md)")
		storeMB  = flag.Int64("store-max-mb", 0, "evict least-recently-used store entries past this many MB (0 = unlimited)")
		storeMem = flag.Int64("store-mem-mb", 0, "serve repeated store reads from an in-memory hot tier of this many MB (0 = disabled)")
		verbose  = flag.Bool("v", false, "report wall-clock and simulated instructions/sec on exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (perf tuning)")
	)
	flag.Parse()

	// stopProfile must also run on the failure path below, which exits via
	// os.Exit and would skip a deferred stop, truncating the profile.
	stopProfile := func() {}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		stopProfile = pprof.StopCPUProfile
		defer stopProfile()
	}

	if *list {
		for _, id := range slicc.ExperimentIDs() {
			fmt.Println(id)
		}
		for _, name := range slicc.SweepPresets() {
			fmt.Printf("sweep:%s\n", name)
		}
		return
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	opts := slicc.EngineOptions{Workers: *workers, StoreDir: *storeDir, StoreMaxBytes: *storeMB << 20, StoreMemBytes: *storeMem << 20}
	if *progress {
		opts.Progress = func(done, scheduled int) {
			fmt.Fprintf(os.Stderr, "\rsimulations %d/%d ", done, scheduled)
		}
	}
	engine, err := slicc.NewEngine(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer engine.Close()

	if *sweepPth != "" {
		// The experiment-shaping flags do not apply to sweeps (a spec
		// carries its own seeds/scales axes and has no trace form); refuse
		// them rather than silently running something the user did not ask
		// for.
		var conflicts []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "quick", "seed", "trace", "run":
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			fmt.Fprintf(os.Stderr, "-sweep does not combine with %s: set the sweep's axes in the spec instead (see EXPERIMENTS.md \"Sweeps\")\n",
				strings.Join(conflicts, ", "))
			engine.Close() // os.Exit skips the deferred close
			stopProfile()
			os.Exit(2)
		}
		start := time.Now()
		err := runSweep(engine, *sweepPth, w, *asJSON, *asCSV, *watch)
		if *progress {
			fmt.Fprintln(os.Stderr)
		}
		reportStats(engine, start, *verbose)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			engine.Close() // os.Exit skips the deferred close
			stopProfile()
			os.Exit(1)
		}
		return
	}

	ids := []string{*run}
	if *run == "all" {
		ids = slicc.ExperimentIDs()
	}

	// Run every experiment concurrently on the shared engine — the engine
	// bounds simulation parallelism at -j workers and dedups identical
	// simulations across experiments — then emit output in stable id order.
	type outcome struct {
		tables []slicc.ExperimentTable
		err    error
		// doneAt is the completion offset from launch. Experiments run
		// concurrently and share workers, so a per-experiment duration
		// would mostly measure waiting on the pool; the completion
		// timeline is the honest number.
		doneAt time.Duration
	}
	outcomes := make([]outcome, len(ids))
	var wg sync.WaitGroup
	start := time.Now()
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			opts := slicc.ExperimentOptions{Quick: *quick, Seed: *seed, TracePath: *tracePth}
			tables, err := engine.ExperimentWith(context.Background(), id, opts)
			outcomes[i] = outcome{tables: tables, err: err, doneAt: time.Since(start)}
		}(i, id)
	}
	wg.Wait()
	if *progress {
		fmt.Fprintln(os.Stderr)
	}

	// Emit every successful experiment and report every failure: one bad id
	// must not suppress the others' output, but any failure makes the whole
	// invocation exit non-zero.
	var failures []string
	collected := map[string][]slicc.ExperimentTable{}
	for i, id := range ids {
		o := outcomes[i]
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, o.err)
			failures = append(failures, id)
			continue
		}
		if *asJSON {
			collected[id] = o.tables
		} else {
			for _, t := range o.tables {
				t.Format(w)
			}
		}
		fmt.Fprintf(os.Stderr, "%s done at +%v\n", id, o.doneAt.Round(time.Millisecond))
	}
	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(collected); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failures = append(failures, "(json encoding)")
		}
	}
	reportStats(engine, start, *verbose)
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed: %s\n", len(failures), strings.Join(failures, ", "))
		engine.Close() // os.Exit skips the deferred close
		stopProfile()  // ... and the deferred profile stop
		os.Exit(1)
	}
}

// runSweep loads the JSON sweep spec at path ("-" for stdin), runs it on
// the shared engine, and emits the result as an aligned table (default),
// JSON, or CSV. With watch, every finished cell prints a progress line on
// stderr as it lands (sliccd streams the same events over SSE).
func runSweep(engine *slicc.Engine, path string, w io.Writer, asJSON, asCSV, watch bool) error {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	var spec slicc.SweepSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return fmt.Errorf("decoding sweep spec %s: %w", path, err)
	}
	runFn := engine.Sweep
	if watch {
		runFn = func(ctx context.Context, spec slicc.SweepSpec) (*slicc.SweepResult, error) {
			return engine.SweepStream(ctx, spec, func(ev slicc.SweepEvent) {
				if ev.Type != slicc.SweepEventCell {
					return
				}
				served := "simulated"
				if ev.StoreHit {
					served = "store hit"
				}
				fmt.Fprintf(os.Stderr, "cell %d/%d  %s/%s  %.0f cycles  %.3fx  (%s)\n",
					ev.Completed, ev.Total, ev.Cell.Workload, ev.Cell.Policy,
					ev.Cell.Cycles, ev.Cell.Speedup, served)
			})
		}
	}
	res, err := runFn(context.Background(), spec)
	if err != nil {
		return err
	}
	switch {
	case asJSON:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	case asCSV:
		return res.WriteCSV(w)
	default:
		t := slicc.SweepTable(res)
		t.Format(w)
		return nil
	}
}

// reportStats prints the engine's work counters (and with verbose the
// simulation rate the BENCH_SIM.json trajectory tracks) on stderr.
func reportStats(engine *slicc.Engine, start time.Time, verbose bool) {
	stats := engine.Stats()
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "total %v: %d simulations executed, %d deduplicated, %d store hits, %d workloads synthesized (%d reused)\n",
		elapsed.Round(time.Millisecond),
		stats.SimsExecuted, stats.DedupHits, stats.StoreHits, stats.WorkloadsBuilt, stats.WorkloadHits)
	if verbose {
		fmt.Fprintf(os.Stderr, "perf: %.3fs wall-clock, %d instructions simulated, %.2fM instr/s\n",
			elapsed.Seconds(), stats.InstructionsSimulated,
			float64(stats.InstructionsSimulated)/elapsed.Seconds()/1e6)
		fmt.Fprintf(os.Stderr, "supply: %d op-stream generator passes, %d streams recorded, %d of %d machines on recycled storage\n",
			stats.OpStreamGeneratorPasses, stats.OpStreamsRecorded, stats.MachinesRecycled, stats.SimsExecuted)
	}
}
