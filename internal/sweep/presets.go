package sweep

import "sort"

// mustIntRange is IntRange for the static preset table (arguments are
// compile-time constants, so the error path is unreachable).
func mustIntRange(from, to, step int) IntAxis {
	a, err := IntRange(from, to, step)
	if err != nil {
		panic(err)
	}
	return a
}

// presets are the named scenario presets. Each is a full Spec the user's
// explicit fields override, so `{"preset": "fig7-thresholds", "threads":
// [40], "scales": [0.35]}` is the quick-size version of the full study.
//
// The figure presets reproduce the paper's threshold explorations exactly:
// their cells expand to the same runner jobs the corresponding
// internal/experiments figure declares (full size, seed 1), so a store
// warmed by `experiments -run fig7` answers the fig7-thresholds sweep
// without executing a single simulation — and vice versa
// (TestFigurePresetsMatchFigures).
var presets = map[string]Spec{
	// Figure 7 (Section 5.2): fill-up_t x matched_t with the dilution gate
	// disabled and idealized (exact, uncharged) remote search.
	"fig7-thresholds": {
		Workloads:   []string{"tpcc1", "tpce"},
		Policies:    []string{"slicc-sw"},
		Threads:     Ints(160),
		Scales:      Floats(1),
		FillUpT:     Ints(128, 256, 384, 512),
		MatchedT:    Ints(2, 4, 6, 8, 10),
		DilutionT:   Ints(-1),
		ExactSearch: Bool(true),
		Objective:   "speedup",
	},
	// Figure 8 (Section 5.2): the dilution_t sweep at fill-up_t=256,
	// matched_t=4 (the threshold defaults).
	"fig8-dilution": {
		Workloads: []string{"tpcc1", "tpce"},
		Policies:  []string{"slicc-sw"},
		Threads:   Ints(160),
		Scales:    Floats(1),
		DilutionT: mustIntRange(2, 30, 2),
		Objective: "speedup",
	},
	// Figure 1's size axis as a sweep: baseline I-MPKI vs L1-I capacity.
	// (Unlike Figure 1 proper, hit latency stays at the 32KB machine's 3
	// cycles — this preset isolates the miss curve, not the speedup.)
	"cache-sizing": {
		Workloads: []string{"tpcc1", "tpce", "mapreduce"},
		Policies:  []string{"base"},
		L1IKB:     Ints(16, 32, 64, 128, 256, 512),
		Baseline:  "none",
		Objective: "impki",
	},
	// The scenario families (docs/WORKLOADS.md) under the main policies:
	// where does migration pay off beyond the paper's benchmarks?
	"scenario-families": {
		Workloads: []string{"phased", "skewed", "microservice"},
		Policies:  []string{"nextline", "slicc", "slicc-sw"},
		Objective: "speedup",
	},
	// The scaling extension as a sweep: SLICC-SW's benefit vs core count.
	"core-scaling": {
		Workloads: []string{"tpcc1"},
		Policies:  []string{"slicc-sw"},
		Cores:     Ints(4, 8, 16, 32),
		Objective: "speedup",
	},
}

// Presets lists the available preset names in sorted order.
func Presets() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
