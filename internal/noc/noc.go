// Package noc models the on-chip interconnect of the simulated machine: a
// 2D torus (4x4 for the paper's 16-core configuration, Table 2) with a fixed
// per-hop latency. The model is latency- and traffic-accounting only — the
// paper charges hop latency for cache/migration traffic and reports SLICC's
// search overhead as broadcasts per kilo-instruction (Section 5.8) — so no
// flit-level contention is simulated.
package noc

import "fmt"

// Torus is a width x height 2D torus.
//
// All distances are precomputed at construction into flat src x dst tables,
// so the per-message accessors on the simulator's hot path (Latency,
// PeekLatency, Distance, Broadcast) are array loads and counter updates —
// no modular wrap arithmetic per call. The tables cost O(nodes^2) ints,
// which for the paper's machines (16-64 nodes) is a few KB.
type Torus struct {
	width, height int
	hopLatency    int
	nodes         int
	// dist[a*nodes+b] is the hop count from a to b; lat is dist scaled by
	// hopLatency.
	dist []int
	lat  []int
	// bcastLat[src] is the worst-case broadcast latency from src (farthest
	// distance x hopLatency); bcastHops[src] is the total hops a broadcast
	// from src costs, the amount Broadcast accounts.
	bcastLat  []int
	bcastHops []uint64
	stats     Stats
}

// Stats counts interconnect traffic by message class.
type Stats struct {
	// Messages is the total point-to-point message count.
	Messages uint64
	// Hops is the total hop count across all messages.
	Hops uint64
	// Broadcasts counts broadcast operations (each reaching all other
	// nodes). SLICC's remote segment searches land here.
	Broadcasts uint64
	// SearchBroadcasts counts only SLICC tag-search broadcasts, the BPKI
	// numerator of Section 5.8.
	SearchBroadcasts uint64
}

// New builds a torus; hopLatency is in cycles (Table 2: 1).
func New(width, height, hopLatency int) *Torus {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("noc: invalid torus %dx%d", width, height))
	}
	if hopLatency < 0 {
		panic("noc: negative hop latency")
	}
	t := &Torus{width: width, height: height, hopLatency: hopLatency, nodes: width * height}
	n := t.nodes
	t.dist = make([]int, n*n)
	t.lat = make([]int, n*n)
	t.bcastLat = make([]int, n)
	t.bcastHops = make([]uint64, n)
	for a := 0; a < n; a++ {
		ax, ay := t.coord(a)
		max := 0
		var hops uint64
		for b := 0; b < n; b++ {
			bx, by := t.coord(b)
			d := wrapDist(ax, bx, width) + wrapDist(ay, by, height)
			t.dist[a*n+b] = d
			t.lat[a*n+b] = d * hopLatency
			if b != a {
				hops += uint64(d)
				if d > max {
					max = d
				}
			}
		}
		t.bcastLat[a] = max * hopLatency
		t.bcastHops[a] = hops
	}
	return t
}

// Nodes returns the node count.
func (t *Torus) Nodes() int { return t.nodes }

// coord maps a node index to torus coordinates row-major.
func (t *Torus) coord(node int) (x, y int) {
	return node % t.width, node / t.width
}

// Distance returns the minimal hop count between two nodes, using the
// wrap-around links in each dimension.
func (t *Torus) Distance(a, b int) int {
	if a < 0 || a >= t.nodes || b < 0 || b >= t.nodes {
		panic(fmt.Sprintf("noc: node out of range: %d,%d of %d", a, b, t.nodes))
	}
	return t.dist[a*t.nodes+b]
}

func wrapDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

// Latency returns the cycle cost of a message from a to b and accounts it.
func (t *Torus) Latency(a, b int) int {
	d := t.Distance(a, b)
	t.stats.Messages++
	t.stats.Hops += uint64(d)
	return t.lat[a*t.nodes+b]
}

// PeekLatency returns the cycle cost without recording traffic (used for
// modeling decisions, e.g. choosing the nearest idle core).
func (t *Torus) PeekLatency(a, b int) int {
	if a < 0 || a >= t.nodes || b < 0 || b >= t.nodes {
		panic(fmt.Sprintf("noc: node out of range: %d,%d of %d", a, b, t.nodes))
	}
	return t.lat[a*t.nodes+b]
}

// Broadcast accounts a broadcast from src to all other nodes and returns the
// worst-case latency (distance to the farthest node), which is when the
// initiator can act on all replies. The per-node fan-out is accounted from
// the precomputed totals: one message per other node, their summed hop
// count, same numbers the explicit loop produced.
func (t *Torus) Broadcast(src int, search bool) int {
	if src < 0 || src >= t.nodes {
		panic(fmt.Sprintf("noc: node out of range: %d of %d", src, t.nodes))
	}
	t.stats.Broadcasts++
	if search {
		t.stats.SearchBroadcasts++
	}
	t.stats.Messages += uint64(t.nodes - 1)
	t.stats.Hops += t.bcastHops[src]
	return t.bcastLat[src]
}

// Stats returns a copy of the accumulated traffic counters.
func (t *Torus) Stats() Stats { return t.stats }

// ResetStats zeroes the counters.
func (t *Torus) ResetStats() { t.stats = Stats{} }
