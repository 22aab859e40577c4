// Package cpu provides the per-core timing model. The paper simulates
// 6-wide out-of-order cores on Zesto; reproducing a cycle-level OoO pipeline
// is neither possible nor necessary here (see DESIGN.md): SLICC's effect is
// a cache phenomenon, and the paper's own argument (Section 3.3) is about
// the *relative* cost of instruction vs data misses. This model captures
// exactly that asymmetry:
//
//   - instruction-miss latency stalls the front end fully (and then some:
//     the FetchBubble factor models pipeline refill after the fetch unit
//     starves), while
//   - data-miss latency is largely hidden by out-of-order execution
//     (DataOverlap is the hidden fraction).
//
// The calibration targets the paper's measurements: OLTP baselines spend
// ~80% of their time in memory stalls, and instruction stalls are 70-85%
// of stall cycles (Tözün et al., cited as [28]).
package cpu

// Config parameterizes the timing model.
type Config struct {
	// BaseCPI is the no-stall cycles-per-instruction of the 6-wide core
	// (default 0.5).
	BaseCPI float64
	// DataOverlap is the fraction of a data miss's latency hidden by ILP
	// (default 0.7).
	DataOverlap float64
	// FetchBubble scales instruction-miss latency to account for pipeline
	// refill after fetch starvation (default 2.6, calibrated so the
	// baseline spends ~80% of its time in memory stalls with instruction
	// stalls 70-85% of stall cycles, the measurements the paper cites).
	FetchBubble float64
	// MigrationBaseCycles is the fixed cost of a hardware thread
	// migration: draining the pipeline and writing the architectural
	// register file (default 100, in the spirit of Thread Motion's
	// microsecond-free hardware context transfer).
	MigrationBaseCycles int
	// ContextBytes is the architectural state transferred through the L2
	// on migration (default 256: 16 GPRs + SIMD subset + PC/flags, in
	// cache blocks).
	ContextBytes int
}

// WithDefaults fills zero fields with the baseline configuration.
func (c Config) WithDefaults() Config {
	if c.BaseCPI == 0 {
		c.BaseCPI = 0.5
	}
	if c.DataOverlap == 0 {
		c.DataOverlap = 0.7
	}
	if c.FetchBubble == 0 {
		c.FetchBubble = 2.6
	}
	if c.MigrationBaseCycles == 0 {
		c.MigrationBaseCycles = 100
	}
	if c.ContextBytes == 0 {
		c.ContextBytes = 256
	}
	return c
}

// Timing computes cycle costs from the config.
type Timing struct {
	cfg Config
}

// NewTiming builds a timing model.
func NewTiming(cfg Config) Timing { return Timing{cfg: cfg.WithDefaults()} }

// Config returns the configuration with defaults applied.
func (t Timing) Config() Config { return t.cfg }

// InstrCycles returns the cycle cost of one instruction given the added
// latency of its instruction fetch miss and data miss (either may be zero
// for hits; hit latencies are considered pipelined into BaseCPI). The
// computation is branchless on purpose — hit/miss patterns are data-
// dependent and sit in the simulator's innermost loop; a zero latency
// contributes an exact +0.0, so the result is bit-identical to the guarded
// form. Each product is rounded by an explicit conversion, which the Go
// spec says forbids fusing it into the add: the cost is the same float64
// on every architecture, FMA or not.
func (t Timing) InstrCycles(imissLat, dmissLat int) float64 {
	c := t.cfg.BaseCPI + float64(float64(imissLat)*t.cfg.FetchBubble)
	return c + float64(float64(dmissLat)*(1-t.cfg.DataOverlap))
}

// MigrationCycles returns the latency of migrating a thread whose context
// is staged through the L2 (Section 4.4): fixed drain/save cost plus
// writing and re-reading ContextBytes in blocks of blockBytes at l2Latency
// each, plus the NoC round trip.
func (t Timing) MigrationCycles(nocRoundTrip, l2Latency, blockBytes int) int {
	blocks := (t.cfg.ContextBytes + blockBytes - 1) / blockBytes
	return t.cfg.MigrationBaseCycles + 2*blocks*l2Latency + nocRoundTrip
}
