package trace

import (
	"sync"
	"testing"
)

// TestTeeReaders drives one Tee with readers at every relation to the
// recording frontier: a leader that produces, a follower that decodes what
// the leader left and then overtakes it, a reader that mixes Next with
// NextBatch, and late readers of the completed recording.
func TestTeeReaders(t *testing.T) {
	ops := batchTestOps(5000)
	var doneCalls int
	var doneOps uint64
	tee := NewTee(NewSliceSource(ops), 0, func(n uint64) { doneCalls++; doneOps = n })

	lead, follow := tee.Source(), tee.Source()
	buf := make([]Op, 300)
	var got, gotFollow []Op
	for len(got) < 2000 {
		n := lead.NextBatch(buf)
		got = append(got, buf[:n]...)
	}
	// The follower replays the leader's prefix, then takes the lead.
	for {
		op, ok := follow.Next()
		if !ok {
			break
		}
		gotFollow = append(gotFollow, op)
		if len(gotFollow)%7 == 0 {
			n := follow.NextBatch(buf[:5])
			gotFollow = append(gotFollow, buf[:n]...)
		}
	}
	equalOps(t, "follower", gotFollow, ops)
	if doneCalls != 1 || doneOps != uint64(len(ops)) {
		t.Fatalf("done called %d times with %d ops, want once with %d", doneCalls, doneOps, len(ops))
	}
	// The leader resumes behind the completed recording.
	for n := lead.NextBatch(buf); n > 0; n = lead.NextBatch(buf) {
		got = append(got, buf[:n]...)
	}
	equalOps(t, "leader", got, ops)

	late := tee.Source()
	if _, ok := late.(*MemSource); !ok {
		t.Fatalf("reader of a completed Tee is a %T, want *MemSource", late)
	}
	equalOps(t, "late reader", drainBatch(late, 256), ops)
	if doneCalls != 1 {
		t.Fatalf("done called %d times", doneCalls)
	}
}

// TestTeeConcurrentReaders races readers over one Tee (run under -race):
// the source is drained once, and every reader sees all of it in order.
func TestTeeConcurrentReaders(t *testing.T) {
	ops := batchTestOps(20000)
	src := &countingSource{SliceSource: NewSliceSource(ops)}
	tee := NewTee(src, 4*len(ops), nil)
	const readers = 6
	streams := make([][]Op, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			streams[r] = drainBatch(tee.Source(), 32<<r)
		}(r)
	}
	wg.Wait()
	for _, got := range streams {
		equalOps(t, "concurrent reader", got, ops)
	}
	if src.calls != len(ops)+1 {
		t.Fatalf("source pulled %d times for %d ops", src.calls, len(ops))
	}
}

// countingSource counts Next calls (the Tee serializes them).
type countingSource struct {
	*SliceSource
	calls int
}

func (c *countingSource) Next() (Op, bool) {
	c.calls++
	return c.SliceSource.Next()
}
