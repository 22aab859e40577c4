package workload

// This file defines the three benchmarks of Table 1. Segment sizes are
// 4KB (64 blocks): an OLTP transaction's loop body spans many segments so
// its footprint thrashes a single 32KB L1-I but fits in a few; SLICC's job
// is to spread those segments over neighbouring caches.
//
// Calibration targets (paper, 32KB L1, LRU):
//   TPC-C  I-MPKI ~ 37, TPC-E ~ 30, MapReduce small;
//   D-MPKI ~ 10 and compulsory-dominated;
//   TPC-C stray-thread share ~12%, TPC-E ~3%;
//   TPC-C type footprints larger than TPC-E's.

const segBlocks = 64 // 4KB code segments

// profile returns the per-kind data-region parameters (database sizes from
// Table 1).
func (w *Workload) profile() dataProfile {
	oltp := dataProfile{
		hotBytes: 16 << 10, privBytes: 8 << 10, rowRun: 16,
		rowWrite: 0.60, hotWrite: 0.005, privWrite: 0.50, privSkew: 2,
	}
	switch w.Kind {
	case TPCC1:
		oltp.dbBytes = 84 << 20
		return oltp
	case TPCC10:
		oltp.dbBytes = 1 << 30
		return oltp
	case TPCE:
		oltp.dbBytes = 20 << 30
		return oltp
	case MapReduce:
		return dataProfile{
			dbBytes: 12 << 30, hotBytes: 8 << 10, privBytes: 4 << 10, rowRun: 16,
			rowWrite: 0.20, hotWrite: 0.005, privWrite: 0.40, privSkew: 2,
		}
	case Phased:
		// Phase changes touch fresh working sets, so row streaming dominates
		// and the reusable private set is modest.
		oltp.dbBytes = 8 << 30
		return oltp
	case Skewed:
		// Multi-tenant hot keys: a larger, more contended shared hot set
		// (lock words, tenant metadata) with a visible store fraction.
		return dataProfile{
			dbBytes: 50 << 30, hotBytes: 32 << 10, privBytes: 8 << 10, rowRun: 16,
			rowWrite: 0.60, hotWrite: 0.10, privWrite: 0.50, privSkew: 2,
		}
	case Microservice:
		// Small per-request payloads: short row runs (deserialized fields),
		// a hot set of connection/session state, shallow private frames.
		return dataProfile{
			dbBytes: 2 << 30, hotBytes: 8 << 10, privBytes: 4 << 10, rowRun: 8,
			rowWrite: 0.30, hotWrite: 0.02, privWrite: 0.50, privSkew: 1.5,
		}
	}
	panic("workload: unknown kind")
}

// buildTPCC synthesizes the five-transaction-type TPC-C wholesale-supplier
// workload. Type weights follow the TPC-C mix; the three 4%-weight types are
// the paper's ~12% stray threads.
func buildTPCC(kind Kind) codeImage {
	a := newSegAlloc()
	// Shared DB-engine/OS pool: B-tree, lock manager, log manager, buffer
	// pool, catalog, allocator, syscall, utility (8 x 4KB = 32KB).
	common := a.allocN(8, segBlocks, true)
	btree, lock, logm, buf := common[0], common[1], common[2], common[3]
	catalog, alloc, syscall, util := common[4], common[5], common[6], common[7]

	mk := func(name string, weight float64, bodySegs, optSegs, minItems, maxItems int, entrySegs int) TxnType {
		t := TxnType{
			Name:        name,
			Weight:      weight,
			Entry:       a.allocN(entrySegs, segBlocks, false),
			Preamble:    []int{lock, buf, catalog},
			LoopBody:    append(a.allocN(bodySegs, segBlocks, false), btree, buf),
			Epilogue:    []int{logm, alloc, syscall, util},
			MinItems:    minItems,
			MaxItems:    maxItems,
			BlockRepeat: 0.65,
			DataRate:    0.30,
			RowFrac:     0.55,
			SharedFrac:  0.20,
		}
		for _, seg := range a.allocN(optSegs, segBlocks, false) {
			t.Optional = append(t.Optional, optionalSeg{seg: seg, prob: 0.25})
		}
		return t
	}

	types := []TxnType{
		// NewOrder: the largest footprint (~300KB: the paper observes
		// TPC-C transactions spreading across up to 14 32KB caches).
		mk("NewOrder", 0.45, 60, 8, 2, 4, 3),
		// Payment: medium footprint, few items.
		mk("Payment", 0.43, 40, 6, 2, 4, 2),
		// The three low-weight types supply stray threads (~12%).
		mk("OrderStatus", 0.04, 14, 2, 2, 4, 1),
		mk("Delivery", 0.04, 34, 4, 2, 4, 1),
		mk("StockLevel", 0.04, 18, 2, 2, 4, 1),
	}

	name := "TPC-C-1"
	if kind == TPCC10 {
		name = "TPC-C-10"
	}
	return codeImage{name: name, segments: a.segs, types: types}
}

// buildTPCE synthesizes the TPC-E brokerage workload: ten transaction
// types with a more even mix (stray share ~3%) and somewhat smaller
// footprints than TPC-C, but a larger shared pool (the paper notes TPC-E
// spreads across 8-10 cores vs TPC-C's up to 14).
func buildTPCE() codeImage {
	a := newSegAlloc()
	common := a.allocN(10, segBlocks, true) // transaction frame + engine
	// The brokerage library: a large shared pool the per-type loop bodies
	// draw overlapping windows from. This cross-type code overlap is why
	// the paper finds SLICC's collectives especially effective on TPC-E
	// (and why it beats PIF there: one cached copy serves many types,
	// while a per-core prefetcher re-fetches it per core).
	lib := a.allocN(30, segBlocks, true)

	nextLib := 0
	mk := func(name string, weight float64, bodySegs, optSegs, minItems, maxItems int) TxnType {
		body := a.allocN(bodySegs, segBlocks, false)
		for j := 0; j < 12; j++ {
			body = append(body, lib[(nextLib+j)%len(lib)])
		}
		nextLib += 3
		t := TxnType{
			Name:        name,
			Weight:      weight,
			Entry:       a.allocN(1, segBlocks, false),
			Preamble:    []int{common[0], common[1], common[2]},
			LoopBody:    body,
			Epilogue:    []int{common[5], common[6], common[7]},
			MinItems:    minItems,
			MaxItems:    maxItems,
			BlockRepeat: 0.70,
			DataRate:    0.30,
			RowFrac:     0.50,
			SharedFrac:  0.25,
		}
		for _, seg := range a.allocN(optSegs, segBlocks, false) {
			t.Optional = append(t.Optional, optionalSeg{seg: seg, prob: 0.2})
		}
		return t
	}

	types := []TxnType{
		mk("BrokerVolume", 0.049, 10, 1, 3, 6),
		mk("CustomerPosition", 0.13, 12, 1, 3, 6),
		mk("MarketWatch", 0.18, 9, 1, 3, 6),
		mk("SecurityDetail", 0.14, 13, 2, 3, 6),
		mk("TradeLookup", 0.08, 11, 1, 3, 6),
		mk("TradeOrder", 0.105, 14, 2, 3, 7),
		mk("TradeResult", 0.10, 13, 2, 3, 7),
		mk("TradeStatus", 0.19, 8, 1, 3, 6),
		// The two rare types are TPC-E's ~3% stray share.
		mk("MarketFeed", 0.01, 9, 1, 2, 4),
		mk("TradeUpdate", 0.02, 11, 1, 3, 5),
	}
	return codeImage{name: "TPC-E", segments: a.segs, types: types}
}

// buildMapReduce synthesizes the CloudSuite text-analytics MapReduce
// workload: 300 single-task threads whose instruction footprint fits in one
// 32KB L1-I (the paper's robustness control), streaming a 12GB input.
func buildMapReduce() codeImage {
	a := newSegAlloc()
	// Smaller segments: the whole per-task footprint (~12.5KB) must stay
	// under fill-up_t (256 blocks) so SLICC never even arms migration.
	const mrSegBlocks = 40
	common := a.allocN(2, mrSegBlocks, true) // JVM/runtime-ish shared code

	mapBody := a.allocN(2, mrSegBlocks, false)
	reduceBody := a.allocN(2, mrSegBlocks, false)
	types := []TxnType{
		{
			Name:        "MapTask",
			Weight:      0.8,
			Entry:       a.allocN(1, mrSegBlocks, false),
			Preamble:    []int{common[0]},
			LoopBody:    append(mapBody, common[1]),
			Epilogue:    []int{common[0]},
			MinItems:    10,
			MaxItems:    20,
			BlockRepeat: 0.70,
			DataRate:    0.30,
			RowFrac:     0.80,
			SharedFrac:  0.05,
		},
		{
			Name:        "ReduceTask",
			Weight:      0.2,
			Entry:       a.allocN(1, mrSegBlocks, false),
			Preamble:    []int{common[0]},
			LoopBody:    append(reduceBody, common[1]),
			Epilogue:    []int{common[0]},
			MinItems:    10,
			MaxItems:    20,
			BlockRepeat: 0.70,
			DataRate:    0.30,
			RowFrac:     0.75,
			SharedFrac:  0.05,
		},
	}
	return codeImage{name: "MapReduce", segments: a.segs, types: types}
}
