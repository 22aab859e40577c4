package workload

import (
	"fmt"
	"math"
)

// This file defines the synthetic scenario families beyond the paper's
// Table 1 benchmarks. Each family is built on the same segment allocator /
// TxnType / threadSource machinery as the benchmarks, so every property the
// rest of the system relies on holds automatically: streams are
// deterministic per (seed, thread id), workloads are immutable after New,
// and a recorded container replays byte-identically. The families are
// designed to stress SLICC along axes the paper's benchmarks do not:
//
//   - Phased: large disjoint code phases with bursty excursions, churning
//     the learned per-cache signatures faster than SLICC amortizes them.
//   - Skewed: a Zipfian multi-tenant transaction mix — one dominant team
//     plus a long stray-thread tail, the regime between TPC-C's ~12% and
//     TPC-E's ~3% stray shares.
//   - Microservice: many services with small individual footprints but
//     RPC-like fan-out into each other's stubs and a shared runtime, so
//     aggregate code pressure comes from breadth, not per-thread depth.
//
// docs/WORKLOADS.md documents every parameter and the recipe for adding
// another family.

// buildPhased synthesizes the bursty phase-change scenario: three
// transaction types, each a distinct ~190KB phase of code. A transaction's
// loop body walks its own phase pool, but per iteration it bursts into the
// *next* phase's pool with high probability (optional segments), so the
// segment population of each cache keeps shifting under SLICC — the learned
// bloom signatures dilute faster than in the steady A-B-C-A OLTP loop.
func buildPhased() codeImage {
	a := newSegAlloc()
	// Shared runtime/OS pool (dispatch, allocator, syscall, logging).
	common := a.allocN(6, segBlocks, true)

	// Three disjoint phase pools. Allocated up front so each type can
	// reference its successor phase's segments as burst targets.
	const phases = 3
	pools := make([][]int, phases)
	for p := range pools {
		pools[p] = a.allocN(36, segBlocks, false)
	}
	bursts := make([][]int, phases)
	for p := range bursts {
		bursts[p] = a.allocN(8, segBlocks, false)
	}

	types := make([]TxnType, phases)
	for p := 0; p < phases; p++ {
		t := TxnType{
			Name:     "Phase" + string(rune('A'+p)),
			Weight:   1.0 / phases,
			Entry:    a.allocN(2, segBlocks, false),
			Preamble: []int{common[0], common[1]},
			LoopBody: append(append([]int{}, pools[p]...), common[2]),
			Epilogue: []int{common[3], common[4], common[5]},
			MinItems: 2,
			MaxItems: 5,
			// Lower repeat rate than OLTP: phase code streams through
			// blocks quickly, which is what makes the churn bursty.
			BlockRepeat: 0.45,
			DataRate:    0.30,
			RowFrac:     0.55,
			SharedFrac:  0.15,
		}
		// Bursty excursions into the next phase's private burst pool: at
		// prob 0.35 per iteration each burst segment fires, dragging the
		// thread's footprint across phase boundaries mid-transaction.
		for _, seg := range bursts[(p+1)%phases] {
			t.Optional = append(t.Optional, optionalSeg{seg: seg, prob: 0.35})
		}
		types[p] = t
	}
	return codeImage{name: "Phased", segments: a.segs, types: types}
}

// skewedTenants is the number of tenant transaction types in the Skewed
// scenario; skewedZipfS is the Zipf exponent of their mix weights.
const (
	skewedTenants = 12
	skewedZipfS   = 1.1
)

// buildSkewed synthesizes the multi-tenant hot-key scenario: skewedTenants
// transaction types whose mix weights follow a Zipf(s=1.1) law, so the top
// tenant takes ~30% of threads while the tail tenants each contribute a
// percent or two — stray threads SLICC's team scheduling must tolerate.
// All tenants share the engine pool plus a hot-path library (the code that
// serves the hot keys), so collectives still pay off on the shared half.
func buildSkewed() codeImage {
	a := newSegAlloc()
	common := a.allocN(8, segBlocks, true)  // DB engine: btree, lock, log, buffer...
	hotLib := a.allocN(10, segBlocks, true) // hot-key path: point lookup + update

	// Zipf weights, normalized below by assignThreads' weight sum.
	types := make([]TxnType, skewedTenants)
	for i := 0; i < skewedTenants; i++ {
		body := a.allocN(20, segBlocks, false)
		// Every tenant runs the hot-key library inside its loop, offset so
		// adjacent tenants overlap on most of it (multi-tenant code reuse).
		for j := 0; j < 6; j++ {
			body = append(body, hotLib[(i+j)%len(hotLib)])
		}
		t := TxnType{
			Name:        fmt.Sprintf("Tenant%02d", i+1),
			Weight:      1 / math.Pow(float64(i+1), skewedZipfS),
			Entry:       a.allocN(1, segBlocks, false),
			Preamble:    []int{common[0], common[1], common[2]},
			LoopBody:    append(body, common[3]),
			Epilogue:    []int{common[4], common[5], common[6], common[7]},
			MinItems:    2,
			MaxItems:    5,
			BlockRepeat: 0.65,
			DataRate:    0.30,
			RowFrac:     0.45,
			SharedFrac:  0.35, // hot keys: heavier shared-set traffic than TPC-C
		}
		for _, seg := range a.allocN(3, segBlocks, false) {
			t.Optional = append(t.Optional, optionalSeg{seg: seg, prob: 0.2})
		}
		types[i] = t
	}
	return codeImage{name: "Skewed", segments: a.segs, types: types}
}

// msSegBlocks sizes Microservice code segments: 2KB, matching the small
// handler functions of RPC services.
const msSegBlocks = 32

// microserviceCount is the number of services (transaction types).
const microserviceCount = 16

// buildMicroservice synthesizes the RPC fan-out scenario: microserviceCount
// services, each with a small own footprint (entry + handler body ≈ 14KB)
// that would fit a single L1-I — but every request also executes the stubs
// of three downstream services and the shared serialization/transport
// runtime, pushing the per-request footprint just past one cache while
// keeping every individual segment small. SLICC sees many small segments
// with high cross-type sharing: the regime where migration must pay for
// itself on breadth rather than on one large segment chain.
func buildMicroservice() codeImage {
	a := newSegAlloc()
	// Shared runtime: RPC framing, serialization, connection pool, metrics,
	// allocator, syscall (6 x 2KB).
	runtime := a.allocN(6, msSegBlocks, true)

	// Per-service stubs allocated up front so services can fan out into
	// each other's stubs (the client-side half of a downstream call).
	stubs := make([][]int, microserviceCount)
	for i := range stubs {
		stubs[i] = a.allocN(2, msSegBlocks, false)
	}

	serviceNames := [microserviceCount]string{
		"Auth", "Users", "Catalog", "Cart", "Orders", "Payments", "Pricing", "Stock",
		"Search", "Recs", "Ship", "Notify", "Audit", "Geo", "Rates", "Media",
	}
	types := make([]TxnType, microserviceCount)
	for i := 0; i < microserviceCount; i++ {
		body := a.allocN(6, msSegBlocks, false) // the service's own handler
		// RPC fan-out: call the stubs of three downstream services at
		// spreading strides, so the call graph is connected but no pair of
		// services shares its whole downstream set.
		for _, d := range [...]int{1, 3, 7} {
			body = append(body, stubs[(i+d)%microserviceCount]...)
		}
		body = append(body, runtime[0], runtime[1]) // serialize the reply
		types[i] = TxnType{
			Name:        "Svc" + serviceNames[i],
			Weight:      1.0 / microserviceCount,
			Entry:       a.allocN(1, msSegBlocks, false),
			Preamble:    []int{runtime[2], runtime[3]}, // accept + decode
			LoopBody:    body,
			Epilogue:    []int{runtime[4], runtime[5]}, // metrics + flush
			MinItems:    4,
			MaxItems:    8,
			BlockRepeat: 0.50,
			DataRate:    0.25,
			RowFrac:     0.35,
			SharedFrac:  0.35, // session/connection state in the hot set
		}
	}
	return codeImage{name: "Microservice", segments: a.segs, types: types}
}
