package mem

import (
	"testing"
	"testing/quick"

	"slicc/internal/noc"
)

func TestColdFetchPaysMemoryLatency(t *testing.T) {
	h := New(Config{}, nil)
	lat := h.FetchLatency(0, 0x1000)
	want := h.cfg.L2HitLatency + h.cfg.MemLatency
	if lat != want {
		t.Fatalf("cold fetch latency = %d, want %d", lat, want)
	}
	st := h.Stats()
	if st.L2Misses != 1 || st.MemReads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWarmFetchHitsL2(t *testing.T) {
	h := New(Config{}, nil)
	h.FetchLatency(0, 0x1000)
	lat := h.FetchLatency(0, 0x1000)
	if lat != h.cfg.L2HitLatency {
		t.Fatalf("warm fetch latency = %d, want %d", lat, h.cfg.L2HitLatency)
	}
	if h.Stats().L2Hits != 1 {
		t.Fatalf("stats = %+v", h.Stats())
	}
}

func TestNUCADistanceCharged(t *testing.T) {
	torus := noc.New(4, 4, 1)
	h := New(Config{}, torus)
	// Find an address homed away from core 0 and verify the round trip is
	// charged on top of the L2 hit latency.
	addr := uint64(0)
	for ; h.HomeNode(addr/64) == 0; addr += 64 {
	}
	h.FetchLatency(0, addr) // warm
	lat := h.FetchLatency(0, addr)
	home := h.HomeNode(addr / 64)
	want := h.cfg.L2HitLatency + 2*torus.PeekLatency(0, home)
	if lat != want {
		t.Fatalf("NUCA fetch latency = %d, want %d", lat, want)
	}
}

func TestContains(t *testing.T) {
	h := New(Config{}, nil)
	if h.Contains(0x40) {
		t.Fatal("empty L2 contains block")
	}
	h.FetchLatency(0, 0x40)
	if !h.Contains(0x40) {
		t.Fatal("fetched block missing from L2")
	}
}

func TestResetStats(t *testing.T) {
	h := New(Config{}, nil)
	h.FetchLatency(0, 0)
	h.ResetStats()
	if h.Stats() != (Stats{}) {
		t.Fatal("stats survived reset")
	}
	if !h.Contains(0) {
		t.Fatal("reset dropped contents")
	}
}

// Property: latency is always at least the L2 hit latency and at most
// L2 + memory + 2*diameter.
func TestPropLatencyBounds(t *testing.T) {
	torus := noc.New(4, 4, 1)
	h := New(Config{}, torus)
	const diameter = 4 // 4x4 torus: 4/2 + 4/2 hops
	f := func(core uint8, addr uint32) bool {
		c := int(core) % 16
		lat := h.FetchLatency(c, uint64(addr))
		min := h.cfg.L2HitLatency
		max := h.cfg.L2HitLatency + h.cfg.MemLatency + 2*diameter
		return lat >= min && lat <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: bank homing is stable and within range.
func TestPropHomeNodeStable(t *testing.T) {
	torus := noc.New(4, 4, 1)
	h := New(Config{}, torus)
	f := func(block uint32) bool {
		n := h.HomeNode(uint64(block))
		return n >= 0 && n < torus.Nodes() && n == h.HomeNode(uint64(block))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
