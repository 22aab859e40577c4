package workload

import (
	"math/rand"

	"slicc/internal/trace"
)

// Geometry of the modeled ISA/memory: 64-byte blocks, fixed 4-byte
// instructions (16 per block).
const (
	blockBytes    = 64
	instrBytes    = 4
	instrPerBlock = blockBytes / instrBytes
)

// Address-space layout (byte addresses). Code, database rows, the shared
// hot set and per-thread private data live in disjoint regions so traces
// are easy to inspect and misses are attributable.
const (
	codeBaseBlock = 0x0040_0000 // block address of the first code segment
	rowRegionBase = 0x6000_0000_0000
	hotRegionBase = 0x5000_0000_0000
	privBase      = 0x7000_0000_0000
	privStride    = 1 << 20 // per-thread private region spacing
)

// segAlloc hands out non-overlapping code segments.
type segAlloc struct {
	nextBlock uint64
	segs      []Segment
}

func newSegAlloc() *segAlloc {
	return &segAlloc{nextBlock: codeBaseBlock}
}

// alloc reserves a code segment of the given block count and returns its
// index.
func (a *segAlloc) alloc(blocks int, shared bool) int {
	id := len(a.segs)
	a.segs = append(a.segs, Segment{ID: id, Base: a.nextBlock, Blocks: blocks, Shared: shared})
	a.nextBlock += uint64(blocks)
	return id
}

// allocN reserves n segments and returns their indices.
func (a *segAlloc) allocN(n, blocks int, shared bool) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = a.alloc(blocks, shared)
	}
	return ids
}

// dataProfile captures the per-workload data-region parameters. Stores are
// assigned per region: row updates and private (stack/local) writes carry
// most stores, while the shared hot set (catalog, metadata, lock table
// reads) is read-mostly — which is what keeps OLTP data misses compulsory-
// dominated (Figure 1) rather than invalidation-dominated.
type dataProfile struct {
	dbBytes   uint64 // database size (Table 1); row addresses draw from here
	hotBytes  uint64 // shared hot-set size (locks, catalog, stats)
	privBytes uint64 // per-thread private working set
	rowRun    int    // consecutive 8-byte word accesses per row operation

	rowWrite  float64 // store probability for row accesses
	hotWrite  float64 // store probability for hot-set accesses
	privWrite float64 // store probability for private accesses
	privSkew  float64 // exponential skew of private accesses (mean blocks)
}

// threadSource generates one transaction's op stream. It is a lazy state
// machine over (visit list) x (blocks) x (instructions), attaching data
// accesses per the type's data profile. All randomness comes from its own
// rng, so the stream is independent of simulation order.
type threadSource struct {
	w   *Workload
	ty  *TxnType
	rng *rand.Rand

	visits []int // segment indices in execution order
	vi     int   // current visit
	bi     int   // current block within segment
	ii     int   // current instruction within block pass
	repeat bool  // currently in the repeat pass of this block

	// data-access state
	prof      dataProfile
	privLo    uint64
	rowAddr   uint64
	rowLeft   int
	dbBlocks  uint64
	hotBlocks uint64

	done bool
}

func newThreadSource(w *Workload, id, ti int, seed int64) *threadSource {
	ty := &w.Types[ti]
	rng := rand.New(rand.NewSource(seed))
	s := &threadSource{
		w:    w,
		ty:   ty,
		rng:  rng,
		prof: w.profile(),
	}
	s.privLo = privBase + uint64(id+1)*privStride
	s.dbBlocks = s.prof.dbBytes / blockBytes
	s.hotBlocks = s.prof.hotBytes / blockBytes
	s.visits = buildVisits(w, ty, rng)
	s.startBlock()
	return s
}

// buildVisits lays out the transaction's segment visit order: entry and
// preamble once, then the loop body per item with probabilistic optional
// segments (control-flow divergence), then the epilogue. This produces the
// A-B-C-A revisit pattern of Figure 4.
func buildVisits(w *Workload, ty *TxnType, rng *rand.Rand) []int {
	items := ty.MinItems
	if ty.MaxItems > ty.MinItems {
		items += rng.Intn(ty.MaxItems - ty.MinItems + 1)
	}
	items = int(float64(items) * w.Config.Scale)
	if items < 1 {
		items = 1
	}
	visits := make([]int, 0, len(ty.Entry)+len(ty.Preamble)+items*(len(ty.LoopBody)+len(ty.Optional))+len(ty.Epilogue))
	visits = append(visits, ty.Entry...)
	visits = append(visits, ty.Preamble...)
	for it := 0; it < items; it++ {
		half := len(ty.LoopBody) / 2
		visits = append(visits, ty.LoopBody[:half]...)
		for _, opt := range ty.Optional {
			if rng.Float64() < opt.prob {
				visits = append(visits, opt.seg)
			}
		}
		visits = append(visits, ty.LoopBody[half:]...)
	}
	visits = append(visits, ty.Epilogue...)
	return visits
}

// opBound returns an upper bound on the stream's op count: every visited
// block executes its instructions once and repeats them at most once.
func (s *threadSource) opBound() int64 {
	blocks := 0
	for _, seg := range s.visits {
		blocks += s.w.Segments[seg].Blocks
	}
	return int64(blocks) * instrPerBlock * 2
}

// startBlock decides whether the block about to execute will run its repeat
// pass (a short loop that re-executes the block's instructions).
func (s *threadSource) startBlock() {
	s.ii = 0
	s.repeat = false
}

// Next implements trace.Source.
func (s *threadSource) Next() (trace.Op, bool) {
	if s.done {
		return trace.Op{}, false
	}
	segIdx := s.visits[s.vi]
	seg := &s.w.Segments[segIdx]
	blockOff := uint64(s.w.orders[segIdx][s.bi])
	pc := (seg.Base+blockOff)*blockBytes + uint64(s.ii)*instrBytes
	op := trace.Op{PC: pc}
	s.attachData(&op)
	s.advance(seg)
	return op, true
}

func (s *threadSource) advance(seg *Segment) {
	s.ii++
	if s.ii < instrPerBlock {
		return
	}
	// End of a block pass: maybe run the repeat pass, else next block.
	// Entry (dispatch) segments are straight-line code: same-type threads
	// execute an identical instruction prefix, which is the property
	// SLICC-Pp's scout-core fingerprinting depends on (Section 4.3.1).
	inEntry := s.vi < len(s.ty.Entry)
	if !inEntry && !s.repeat && s.rng.Float64() < s.ty.BlockRepeat {
		s.repeat = true
		s.ii = 0
		return
	}
	s.bi++
	s.startBlock()
	if s.bi < seg.Blocks {
		return
	}
	s.bi = 0
	s.vi++
	if s.vi >= len(s.visits) {
		s.done = true
	}
}

// attachData optionally adds a data access to op.
func (s *threadSource) attachData(op *trace.Op) {
	if s.rng.Float64() >= s.ty.DataRate {
		return
	}
	op.HasData = true
	r := s.rng.Float64()
	switch {
	case r < s.ty.RowFrac:
		op.DataAddr = s.nextRowAddr()
		op.IsWrite = s.rng.Float64() < s.prof.rowWrite
	case r < s.ty.RowFrac+s.ty.SharedFrac:
		op.DataAddr = hotRegionBase + uint64(s.rng.Int63n(int64(s.hotBlocks)))*blockBytes +
			uint64(s.rng.Intn(instrPerBlock))*8
		op.IsWrite = s.rng.Float64() < s.prof.hotWrite
	default:
		// Private accesses are skewed towards the top of the stack frame:
		// only a handful of blocks are hot, so a migration re-fetches few
		// private blocks (the paper's D-MPKI rises only ~1-11%).
		blocks := s.prof.privBytes / blockBytes
		// The float64 conversion rounds the product before the integer
		// conversion, so no architecture fuses the two.
		b := uint64(float64(s.rng.ExpFloat64() * s.prof.privSkew))
		if b >= blocks {
			b = blocks - 1
		}
		op.DataAddr = s.privLo + b*blockBytes + uint64(s.rng.Intn(8))*8
		op.IsWrite = s.rng.Float64() < s.prof.privWrite
	}
}

// nextRowAddr streams through database rows: each row operation touches
// rowRun consecutive 8-byte words starting at a random block of the
// database region. With a database much larger than the aggregate cache,
// these are the compulsory-dominated data misses of Figure 1.
func (s *threadSource) nextRowAddr() uint64 {
	if s.rowLeft == 0 {
		s.rowAddr = rowRegionBase + uint64(s.rng.Int63n(int64(s.dbBlocks)))*blockBytes
		s.rowLeft = s.prof.rowRun
	}
	a := s.rowAddr
	s.rowAddr += 4 // field-by-field scan within the row's block
	s.rowLeft--
	return a
}

// EstimateInstructions returns the expected op count of a thread of type ti
// (used by tests and the tracegen tool; it re-derives a stream and counts).
// For recorded workloads the container's exact per-thread counts are
// averaged over the type's instances instead.
func (w *Workload) EstimateInstructions(ti int) uint64 {
	if w.container != nil {
		var sum, n uint64
		for i := 0; i < w.container.NumThreads(); i++ {
			if m := w.container.Meta(i); m.Type == ti {
				sum += m.Ops
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / n
	}
	src := newThreadSource(w, 0, ti, threadSeed(w.Config.Seed, -1))
	var n uint64
	for {
		if _, ok := src.Next(); !ok {
			return n
		}
		n++
	}
}
