package main

import (
	"math/rand"

	"slicc"
)

// size fixes how much work each workload does. full is what BENCHMARK.json
// measures; smoke is the 1/16-size run `go test` uses to keep the program
// compiling and its metric names honest.
type size struct {
	name string
	// gridIDs restricts grid_cold to these experiment ids (nil = all).
	gridIDs []string
	// tinySeeds is the length of the tiny spec's seed axis: cells = 4 × it.
	tinySeeds int
	// warmPasses is the number of restart-warm replays in warm_reads.
	warmPasses int
	// simConfigs is how many completed simulations warm_reads polls.
	simConfigs int
	// replayTiny / replayQuick are the cells the traced run replays hop by
	// hop: tiny-spec cells and quick-grid cells.
	replayTiny, replayQuick int
	// probeIters scales every layer probe's iteration count.
	probeIters int
	// preflight runs the determinism anchor before measuring.
	preflight bool
}

var (
	sizeFull = size{
		name: "full", tinySeeds: 128, warmPasses: 21,
		simConfigs: 64, replayTiny: 64, replayQuick: 8, probeIters: 200, preflight: true,
	}
	sizeSmoke = size{
		name: "smoke", gridIDs: []string{"fig3", "fig9", "table1", "table2", "table3"},
		tinySeeds: 8, warmPasses: 3,
		simConfigs: 8, replayTiny: 4, replayQuick: 1, probeIters: 12,
	}
)

// Tiny-spec axes. 4 threads at scale 0.05 is about 337K instructions a
// cell: a third of a cell's cost is fixed construction, so every per-cell
// hop of the service shows.
var (
	tinyWorkloads = []string{"tpcc1", "skewed"}
	tinyPolicies  = []string{"base", "slicc-sw"}
)

const (
	tinyThreads = 4
	tinyScale   = 0.05
)

// tinySeed returns the i-th workload seed of the tiny spec for a run seed:
// 1000·seed+1 … 1000·seed+n, so runs with different seeds share no cell.
func tinySeed(seed int64, i int) int64 { return 1000*seed + 1 + int64(i) }

// tinySpec is the sweep the three service workloads run: 2 workloads × 2
// policies × n seeds, all distinct workloads, every cell small.
func tinySpec(seed int64, n int) (slicc.SweepSpec, error) {
	seeds, err := slicc.SweepIntRange(int(tinySeed(seed, 0)), int(tinySeed(seed, n-1)), 1)
	if err != nil {
		return slicc.SweepSpec{}, err
	}
	return slicc.SweepSpec{
		Name:      "tiny",
		Workloads: tinyWorkloads,
		Policies:  tinyPolicies,
		Threads:   slicc.SweepInts(tinyThreads),
		Scales:    slicc.SweepFloats(tinyScale),
		Seeds:     seeds,
	}, nil
}

// tinyCell is one cell of the tiny spec.
type tinyCell struct {
	workload, policy string
	seed             int64
}

// tinyCells returns a seeded sample of k distinct tiny-spec cells.
func tinyCells(seed int64, nSeeds, k int) []tinyCell {
	var all []tinyCell
	for _, w := range tinyWorkloads {
		for _, p := range tinyPolicies {
			for i := 0; i < nSeeds; i++ {
				all = append(all, tinyCell{w, p, tinySeed(seed, i)})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:min(k, len(all))]
}

// config spells the cell as the public single-simulation request whose
// result the sweep already put in the store (sweep cells and slicc.Config
// share job keys; TestSweepJobsMatchPublicConfig holds that).
func (c tinyCell) config() (slicc.Config, error) {
	b, err := slicc.ParseBenchmark(c.workload)
	if err != nil {
		return slicc.Config{}, err
	}
	p, err := slicc.ParsePolicy(c.policy)
	if err != nil {
		return slicc.Config{}, err
	}
	return slicc.Config{Benchmark: b, Policy: p, Threads: tinyThreads, Seed: c.seed, Scale: tinyScale}, nil
}

// readKind is one request type of warm_reads' phase-B mix.
type readKind int

const (
	kindSweep      readKind = iota // GET /v1/sweeps/{id}: cached body
	kindSweep304                   // the same with If-None-Match: 304
	kindSimulation                 // GET /v1/simulations/{id}
	kindResubmit                   // POST /v1/simulations?wait=1, already complete
	kindStats                      // GET /v1/stats
	kindMetrics                    // GET /metrics
	numReadKinds
)

var readKindNames = [numReadKinds]string{"sweep", "sweep_304", "simulation", "resubmit", "stats", "metrics"}

// readMix is the fixed traffic mix, in percent, in readKind order.
var readMix = [numReadKinds]int{40, 30, 15, 10, 4, 1}

// readOp is one generated request: its kind and, for the per-simulation
// kinds, which of the completed simulations it addresses.
type readOp struct {
	kind readKind
	sim  int
}

// readSchedule returns client c's request order: 40 decks of 100 requests,
// each deck holding exactly the mix, shuffled as a whole by the seed. The
// client cycles through it for as long as phase B lasts, so every seed
// sends the same share of each kind — a scrape costs a hundred times a
// 304, and a sampled mix would move the result with the seed's luck.
func readSchedule(seed int64, c, nSims int) []readOp {
	rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
	var ops []readOp
	for deck := 0; deck < 40; deck++ {
		for k, share := range readMix {
			for i := 0; i < share; i++ {
				ops = append(ops, readOp{kind: readKind(k), sim: rng.Intn(nSims)})
			}
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}
