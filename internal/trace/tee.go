package trace

import "sync"

// Tee records a source into an OpEncoder while the source's first
// consumers replay it, so a stream that will be replayed again is produced
// exactly once: there is no separate recording pass. Every Source a Tee
// hands out replays the whole stream from the start. A reader decodes the
// recorded prefix from memory (lock-free: the prefix is immutable) and,
// when it reaches the recording's frontier, pulls the next ops from the
// underlying source under the Tee's lock, appending them for the readers
// behind it. Concurrent readers therefore advance one shared recording —
// whichever is ahead does the producing — and none of them ever waits for
// another's consumer to make progress.
//
// A reader abandoned mid-stream leaves a valid partial recording: later
// readers replay it and resume the underlying source where it stopped.
type Tee struct {
	mu  sync.Mutex
	src Source // nil once drained: the recording is complete
	enc OpEncoder
	// done, if set, is called once with the stream's op count when the
	// underlying source drains (under the Tee's lock, from whichever
	// reader hit the end).
	done func(ops uint64)
}

// NewTee wraps src. sizeBytes pre-sizes the recording buffer (see
// OpEncoder.Grow); done may be nil.
func NewTee(src Source, sizeBytes int, done func(ops uint64)) *Tee {
	t := &Tee{src: src, done: done}
	t.enc.Grow(sizeBytes)
	return t
}

// Source returns a fresh reader of the stream from its start. Once the
// recording is complete this is a plain MemSource.
func (t *Tee) Source() BatchSource {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.src == nil {
		return t.enc.Source()
	}
	return &teeSource{t: t, mem: MemSource{buf: t.enc.buf, want: t.enc.n}}
}

// teeSource is one reader of an in-flight Tee: a MemSource over the
// recording as of its last look, re-pointed at the Tee whenever it runs
// dry.
type teeSource struct {
	t   *Tee
	mem MemSource
}

// Next implements Source.
func (s *teeSource) Next() (Op, bool) {
	if op, ok := s.mem.Next(); ok {
		return op, true
	}
	var one [1]Op
	if s.NextBatch(one[:]) == 0 {
		return Op{}, false
	}
	return one[0], true
}

// NextBatch implements BatchSource.
func (s *teeSource) NextBatch(dst []Op) int {
	if n := s.mem.NextBatch(dst); n > 0 || len(dst) == 0 {
		return n
	}
	t := s.t
	t.mu.Lock()
	if s.mem.read < t.enc.n {
		// Another reader recorded past this one: decode what it left.
		s.mem.buf, s.mem.want = t.enc.buf, t.enc.n
		t.mu.Unlock()
		return s.mem.NextBatch(dst)
	}
	defer t.mu.Unlock()
	if t.src == nil {
		return 0
	}
	// At the frontier: produce the next ops, recording them on the way
	// through, and move this reader past them.
	n := 0
	for n < len(dst) {
		op, ok := t.src.Next()
		if !ok {
			t.src = nil
			if t.done != nil {
				t.done(t.enc.n)
			}
			break
		}
		t.enc.Append(op)
		dst[n] = op
		n++
	}
	s.mem = MemSource{buf: t.enc.buf, pos: len(t.enc.buf), read: t.enc.n, want: t.enc.n, prevPC: t.enc.prevPC}
	return n
}
