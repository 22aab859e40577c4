package noc

import (
	"testing"
	"testing/quick"
)

func TestDistanceBasics(t *testing.T) {
	tr := New(4, 4, 1)
	cases := []struct {
		a, b, want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 1},  // wrap in x: 0 -> 3 is one hop backwards
		{0, 12, 1}, // wrap in y
		{0, 5, 2},
		{0, 10, 4}, // diameter of 4x4 torus = 2+2
		{5, 5, 0},
	}
	for _, c := range cases {
		if got := tr.Distance(c.a, c.b); got != c.want {
			t.Errorf("Distance(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// maxDistance returns the torus diameter in hops: the largest Distance
// between any two nodes.
func maxDistance(tr *Torus) int {
	d := 0
	for a := 0; a < tr.Nodes(); a++ {
		for b := 0; b < tr.Nodes(); b++ {
			d = max(d, tr.Distance(a, b))
		}
	}
	return d
}

func TestMaxDistance(t *testing.T) {
	for _, c := range []struct{ w, h, want int }{{4, 4, 4}, {5, 3, 3}, {8, 2, 5}} {
		if got := maxDistance(New(c.w, c.h, 1)); got != c.want {
			t.Errorf("%dx%d torus diameter = %d, want %d", c.w, c.h, got, c.want)
		}
	}
}

func TestLatencyScalesWithHopLatency(t *testing.T) {
	tr := New(4, 4, 3)
	if got := tr.Latency(0, 5); got != 6 {
		t.Fatalf("Latency(0,5) = %d, want 6", got)
	}
	st := tr.Stats()
	if st.Messages != 1 || st.Hops != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPeekLatencyDoesNotAccount(t *testing.T) {
	tr := New(4, 4, 1)
	tr.PeekLatency(0, 5)
	if tr.Stats().Messages != 0 {
		t.Fatal("PeekLatency recorded traffic")
	}
}

func TestBroadcast(t *testing.T) {
	tr := New(4, 4, 1)
	lat := tr.Broadcast(0, true)
	if lat != maxDistance(tr) {
		t.Fatalf("broadcast latency %d, want diameter %d", lat, maxDistance(tr))
	}
	st := tr.Stats()
	if st.Broadcasts != 1 || st.SearchBroadcasts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Messages != 15 {
		t.Fatalf("broadcast sent %d messages, want 15", st.Messages)
	}
	tr.Broadcast(3, false)
	if tr.Stats().SearchBroadcasts != 1 {
		t.Fatal("non-search broadcast counted as search")
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New(0,4,1) did not panic")
			}
		}()
		New(0, 4, 1)
	}()
	tr := New(2, 2, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Distance out of range did not panic")
			}
		}()
		tr.Distance(0, 9)
	}()
}

// Property: distance is symmetric, non-negative, bounded by the diameter,
// and zero iff a == b.
func TestPropDistanceMetric(t *testing.T) {
	tr := New(4, 4, 1)
	diameter := maxDistance(tr)
	f := func(a, b uint8) bool {
		x, y := int(a)%16, int(b)%16
		d := tr.Distance(x, y)
		if d != tr.Distance(y, x) {
			return false
		}
		if d < 0 || d > diameter {
			return false
		}
		return (d == 0) == (x == y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality holds on the torus.
func TestPropTriangleInequality(t *testing.T) {
	tr := New(4, 4, 1)
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%16, int(b)%16, int(c)%16
		return tr.Distance(x, z) <= tr.Distance(x, y)+tr.Distance(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResetStats(t *testing.T) {
	tr := New(4, 4, 1)
	tr.Latency(0, 1)
	tr.ResetStats()
	if tr.Stats() != (Stats{}) {
		t.Fatal("stats survived reset")
	}
}
