package workload

// Tests for the op-stream ladder (opCache): which replay records, that a
// recording is the generator's exact output however many replays race over
// it, and that the code image is built once per kind.

import (
	"sync"
	"testing"

	"slicc/internal/trace"
)

// generated returns thread id's stream straight from its generator,
// bypassing the ladder.
func generated(w *Workload, id int) []trace.Op {
	return trace.Record(newThreadSource(w, id, w.threads[id].Type, threadSeed(w.Config.Seed, id)), 0)
}

func sameOps(t *testing.T, label string, got, want []trace.Op) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ops, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: op %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestLadderGeneratorFirst pins the default ladder: the first replay is
// the bare generator and records nothing, the second records while it
// replays, the third decodes from memory.
func TestLadderGeneratorFirst(t *testing.T) {
	w := New(Config{Kind: TPCC1, Threads: 2, Seed: 7, Scale: 0.05})
	want := generated(w, 0)
	th := w.Threads()[0]

	first := th.New()
	if _, ok := first.(*threadSource); !ok {
		t.Fatalf("first replay is a %T, want the bare generator", first)
	}
	sameOps(t, "first replay", trace.Record(first, 0), want)
	if passes, recorded := w.OpStreamStats(); passes != 1 || recorded != 0 {
		t.Fatalf("after one replay: %d passes, %d recorded; want 1, 0", passes, recorded)
	}

	sameOps(t, "second replay", trace.Record(th.New(), 0), want)
	if passes, recorded := w.OpStreamStats(); passes != 2 || recorded != 1 {
		t.Fatalf("after two replays: %d passes, %d recorded; want 2, 1", passes, recorded)
	}

	third := th.New()
	if _, ok := third.(*trace.MemSource); !ok {
		t.Fatalf("third replay is a %T, want a MemSource over the recording", third)
	}
	sameOps(t, "third replay", trace.Record(third, 0), want)
	if passes, _ := w.OpStreamStats(); passes != 2 {
		t.Fatalf("third replay started generator pass %d", passes)
	}
}

// TestExpectReplaysRecordsFirstReplay: after the hint the first replay
// records, so every replay together costs one generator pass a thread.
func TestExpectReplaysRecordsFirstReplay(t *testing.T) {
	w := New(Config{Kind: Skewed, Threads: 3, Seed: 7, Scale: 0.05})
	w.ExpectReplays()
	for id, th := range w.Threads() {
		want := generated(w, id)
		for replay := 0; replay < 3; replay++ {
			sameOps(t, "replay", trace.Record(th.New(), 0), want)
		}
	}
	if passes, recorded := w.OpStreamStats(); passes != 3 || recorded != 3 {
		t.Fatalf("%d generator passes, %d streams recorded; want 3, 3", passes, recorded)
	}
}

// TestConcurrentFirstReplays has many goroutines open and drain one
// thread's stream at once (run under -race): the generator runs exactly
// once and every reader sees exactly its output, whichever of them happens
// to be producing.
func TestConcurrentFirstReplays(t *testing.T) {
	w := New(Config{Kind: TPCC1, Threads: 2, Seed: 11, Scale: 0.05})
	w.ExpectReplays()
	want := generated(w, 1)
	th := w.Threads()[1]

	const readers = 8
	streams := make([][]trace.Op, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			src := th.New()
			if r%2 == 0 {
				streams[r] = trace.Record(src, 0) // op at a time
				return
			}
			buf := make([]trace.Op, 64+r)
			bs := src.(trace.BatchSource)
			for n := bs.NextBatch(buf); n > 0; n = bs.NextBatch(buf) {
				streams[r] = append(streams[r], buf[:n]...)
			}
		}(r)
	}
	close(start)
	wg.Wait()
	for _, got := range streams {
		sameOps(t, "concurrent reader", got, want)
	}
	if passes, recorded := w.OpStreamStats(); passes != 1 || recorded != 1 {
		t.Fatalf("%d generator passes, %d streams recorded; want 1, 1", passes, recorded)
	}
}

// TestAbandonedRecordingResumes: a replay that stops mid-stream (a
// cancelled or instruction-capped simulation) leaves a partial recording
// that later replays extend rather than restart.
func TestAbandonedRecordingResumes(t *testing.T) {
	w := New(Config{Kind: TPCE, Threads: 1, Seed: 5, Scale: 0.05})
	w.ExpectReplays()
	want := generated(w, 0)
	th := w.Threads()[0]
	trace.Record(th.New(), len(want)/3)
	sameOps(t, "replay after an abandoned one", trace.Record(th.New(), 0), want)
	if passes, recorded := w.OpStreamStats(); passes != 1 || recorded != 1 {
		t.Fatalf("%d generator passes, %d streams recorded; want 1, 1", passes, recorded)
	}
}

// TestOpCacheBudgetRejects: a stream whose bound exceeds the remaining
// budget is never recorded; it stays on the generator, byte-identical.
func TestOpCacheBudgetRejects(t *testing.T) {
	saved := opCacheBudget
	defer func() { opCacheBudget = saved }()
	opCacheBudget = 1000
	w := New(Config{Kind: TPCC1, Threads: 1, Seed: 7, Scale: 0.05})
	w.ExpectReplays()
	want := generated(w, 0)
	for replay := 0; replay < 3; replay++ {
		src := w.Threads()[0].New()
		if _, ok := src.(*threadSource); !ok {
			t.Fatalf("replay %d is a %T, want the bare generator", replay, src)
		}
		sameOps(t, "over-budget replay", trace.Record(src, 0), want)
	}
	if _, recorded := w.OpStreamStats(); recorded != 0 {
		t.Fatalf("%d streams recorded over budget", recorded)
	}
}

// TestRecordingSizedOnce: the bound the recording buffer is sized from
// holds, so recording never regrows it.
func TestRecordingSizedOnce(t *testing.T) {
	for _, k := range AllKinds() {
		w := New(Config{Kind: k, Threads: 4, Seed: 3, Scale: 0.05})
		for id := range w.Threads() {
			src := newThreadSource(w, id, w.threads[id].Type, threadSeed(w.Config.Seed, id))
			bound := src.opBound()
			var enc trace.OpEncoder
			for op, ok := src.Next(); ok; op, ok = src.Next() {
				enc.Append(op)
			}
			if int64(enc.Ops()) > bound {
				t.Fatalf("%v thread %d: %d ops exceed the bound %d", k, id, enc.Ops(), bound)
			}
			if size := int64(enc.Bytes()); size > bound*encBytesPerOp {
				t.Fatalf("%v thread %d: %d encoded bytes exceed the reservation %d", k, id, size, bound*encBytesPerOp)
			}
		}
	}
}

// TestCodeImageShared: a kind's code image is built once per process and
// shared (pointer-equal) by every workload of the kind, whatever its seed,
// thread count or scale.
func TestCodeImageShared(t *testing.T) {
	for _, k := range AllKinds() {
		a := New(Config{Kind: k, Threads: 2, Seed: 1, Scale: 0.05})
		b := New(Config{Kind: k, Threads: 5, Seed: 99, Scale: 0.5})
		if &a.orders[0] != &b.orders[0] || &a.Segments[0] != &b.Segments[0] || &a.Types[0] != &b.Types[0] {
			t.Errorf("%v: second workload does not share the first's code image", k)
		}
	}
	if c, c10 := New(Config{Kind: TPCC1, Threads: 1}), New(Config{Kind: TPCC10, Threads: 1}); c.Name == c10.Name {
		t.Errorf("TPC-C-1 and TPC-C-10 share the name %q", c.Name)
	}
}

// TestKindTokenTable pins the Kind -> token table against the display-name
// table it parallels.
func TestKindTokenTable(t *testing.T) {
	if len(kindTokenNames) != len(kindNames) {
		t.Fatalf("%d tokens for %d kinds", len(kindTokenNames), len(kindNames))
	}
	if got := Recorded.Token(); got != "kind(-1)" {
		t.Errorf("Recorded.Token() = %q", got)
	}
}
