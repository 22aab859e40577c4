package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"slicc/internal/sim"
	"slicc/internal/store"
)

// Memo is a persistent memoization layer under the pool's in-flight dedup.
// The pool consults it once per *claimed* job — after in-memory dedup, so
// concurrent identical jobs cost one lookup — and records every successful
// execution. Implementations must be safe for concurrent use and must only
// return results previously recorded for exactly that key; a Memo that
// simply always misses is valid.
//
// Keys come from JobKey, so a Memo shared between processes (the store-
// backed one) is shared between every binary that runs the same jobs.
type Memo interface {
	// Get returns the recorded result for key, if any.
	Get(key string) (Result, bool)
	// Put records a successful result under key. Best effort: a Memo that
	// fails to record must simply miss later.
	Put(key string, res Result)
}

// jobKeyVersion tags the hash input. Bump it whenever Job's schema or the
// meaning of any field changes, so stale persisted results from older
// binaries become unreachable instead of silently wrong.
const jobKeyVersion = "slicc-job-v1"

// JobKey returns the stable content key of a job: a hex SHA-256 over a
// versioned, canonical encoding of the normalized job. Two jobs that
// describe the same simulation — including differently spelled defaults —
// have equal keys; any semantic difference changes the key. The pool
// computes it once per unique job of a call, on the dispatcher that takes
// the job, and keys its in-memory memo by it as well as the Memo.
//
// Trace-driven jobs must carry Workload.TraceDigest (the runner resolves it
// before keying): the key then covers the trace's *contents*, so renaming a
// container does not defeat persistent memoization and re-recording one
// does not replay stale results.
func JobKey(j Job) string {
	j = j.normalized()
	// Paths never reach the key: contents are identified by digest only.
	j.Workload.TracePath = ""
	b, err := json.Marshal(j)
	if err != nil {
		// Job is a tree of plain exported value fields; Marshal cannot fail.
		panic(fmt.Sprintf("runner: encoding job key: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(jobKeyVersion))
	h.Write([]byte{'\n'})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// storedResult is the persisted subset of Result: everything except Err
// (failed and cancelled jobs are never persisted).
type storedResult struct {
	Sim                       sim.Result
	ReuseGlobal, ReusePerType sim.ReuseBreakdown
	BloomAccuracy             float64
}

// storeMemo adapts a content-addressed store.Store to the Memo interface,
// encoding results with gob (bit-exact for floats, so a replayed result
// formats byte-identically to the executed one). It caches no results:
// the pool calls Get once per claimed job and keeps every result it
// resolves in its own memo, so a second Get of one key never comes.
//
// Every entry is one gob stream: the type-definition messages for
// storedResult's type graph (its "type section", ~900 bytes), then one
// value message. Compiling that graph is ~95 % of a fresh decode, and
// every entry a process writes carries the same section, so the memo
// keeps one decoder primed with the last section it decoded and feeds it
// only the value message of an entry whose section is byte-identical.
// An entry with another section (a writer whose gob type ids differ)
// decodes fresh and primes the decoder for its kind.
type storeMemo struct {
	s *store.Store

	// mu guards the primed decoder: dec has consumed exactly the type
	// section section, and reads its next message from in.
	mu      sync.Mutex
	dec     *gob.Decoder
	in      *bytes.Reader
	section []byte
}

// NewStoreMemo wraps a result store as a pool Memo.
func NewStoreMemo(s *store.Store) Memo {
	return &storeMemo{s: s}
}

func (m *storeMemo) Get(key string) (Result, bool) {
	b, ok := m.s.Get(key)
	if !ok {
		return Result{}, false
	}
	sr, ok := m.decode(b)
	if !ok {
		// An undecodable payload (written by a binary with different result
		// types under the same key version) is a miss, like any corruption.
		return Result{}, false
	}
	return Result{
		Sim:           sr.Sim,
		ReuseGlobal:   sr.ReuseGlobal,
		ReusePerType:  sr.ReusePerType,
		BloomAccuracy: sr.BloomAccuracy,
	}, true
}

// decode decodes one entry exactly as gob.NewDecoder(bytes.NewReader(b))
// would. If b's type section is the one the primed decoder consumed, only
// b's value message is fed to it; otherwise a fresh decoder decodes all
// of b and, on success, becomes the primed one. A decoder that fails is
// never kept.
func (m *storeMemo) decode(b []byte) (storedResult, bool) {
	var sr storedResult
	n := typeSectionLen(b)
	m.mu.Lock()
	if n >= 0 && m.dec != nil && bytes.Equal(b[:n], m.section) {
		m.in.Reset(b[n:])
		err := m.dec.Decode(&sr)
		if err != nil {
			m.dec, m.in, m.section = nil, nil, nil
		}
		m.mu.Unlock()
		return sr, err == nil
	}
	m.mu.Unlock()

	in := bytes.NewReader(b)
	dec := gob.NewDecoder(in)
	if err := dec.Decode(&sr); err != nil {
		return storedResult{}, false
	}
	if n >= 0 {
		m.mu.Lock()
		m.dec, m.in, m.section = dec, in, bytes.Clone(b[:n])
		m.mu.Unlock()
	}
	return sr, true
}

// typeSectionLen returns the length of b's leading type-definition
// messages — the offset of its first value message — or -1 if b does not
// frame as such. The framing is gob's ("Encoding details"): a message is
// a byte count then that many bytes, which open with a signed type id,
// negative for a type definition. Counts and ids are gob uints (one byte
// below 0x80, else a negated byte count and that many big-endian bytes);
// a signed int's sign is its uint's low bit.
func typeSectionLen(b []byte) int {
	for off := 0; ; {
		count, w := gobUint(b[off:])
		if w == 0 || count > uint64(len(b)-off-w) {
			return -1
		}
		id, iw := gobUint(b[off+w : off+w+int(count)])
		if iw == 0 {
			return -1
		}
		if id&1 == 0 { // a non-negative id: the value message
			return off
		}
		off += w + int(count)
	}
}

// gobUint decodes one gob uint from the front of b, returning it and its
// width in bytes, or width 0 if b does not start with a whole one. Like
// gob, it accepts non-minimal encodings.
func gobUint(b []byte) (x uint64, width int) {
	if len(b) == 0 {
		return 0, 0
	}
	if b[0] <= 0x7f {
		return uint64(b[0]), 1
	}
	n := -int(int8(b[0]))
	if n > 8 || len(b) < 1+n {
		return 0, 0
	}
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n
}

func (m *storeMemo) Put(key string, res Result) {
	if res.Err != nil {
		return
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(storedResult{
		Sim:           res.Sim,
		ReuseGlobal:   res.ReuseGlobal,
		ReusePerType:  res.ReusePerType,
		BloomAccuracy: res.BloomAccuracy,
	}); err != nil {
		return
	}
	// Best effort by contract: a failed write only costs a future re-run.
	_ = m.s.Put(key, buf.Bytes())
}
