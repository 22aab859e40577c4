package runner

// The primed stored-result decoder must decode every byte string exactly
// as a fresh gob.Decoder does. Entries reach the store from other
// processes (workers Put straight into a shared store), and gob assigns
// type ids per process, so an entry's type section is not always the one
// this process writes: TestForeignTypeSection makes such a writer in a
// re-executed child, and FuzzStoredResultDecode checks the equivalence on
// arbitrary bytes.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"sync"
	"testing"

	"slicc/internal/store"
)

// foreignWriterEnv, when set, turns the test binary into a foreign writer:
// it writes foreignEntries entries into the store directory it names and
// exits (see TestForeignTypeSection).
const foreignWriterEnv = "SLICC_TEST_FOREIGN_WRITER"

const (
	foreignEntries = 4
	foreignGolden  = "testdata/tiny-job-foreign.entry"
)

func TestMain(m *testing.M) {
	if dir := os.Getenv(foreignWriterEnv); dir != "" {
		if err := writeForeignEntries(dir); err != nil {
			fmt.Fprintln(os.Stderr, "foreign writer:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// unrelated is gob-encoded by the foreign writer before any result.
type unrelated struct{ Note string }

// writeForeignEntries is the child's half of TestForeignTypeSection. A
// gob type id is assigned per process when a type is first encoded, so a
// process that encodes anything else first writes storedResult's type
// section with other ids.
func writeForeignEntries(dir string) error {
	if err := gob.NewEncoder(io.Discard).Encode(unrelated{"first"}); err != nil {
		return err
	}
	base, err := goldenResult()
	if err != nil {
		return err
	}
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer s.Close()
	m := NewStoreMemo(s)
	for i := 0; i < foreignEntries; i++ {
		m.Put(fmt.Sprintf("foreign-%d", i), variant(base, i))
	}
	return nil
}

// goldenResult decodes the pinned tiny-job entry the way the parent
// commit's reader did.
func goldenResult() (Result, error) {
	b, err := os.ReadFile(goldenEntry)
	if err != nil {
		return Result{}, err
	}
	var sr storedResult
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&sr); err != nil {
		return Result{}, err
	}
	return Result{Sim: sr.Sim, ReuseGlobal: sr.ReuseGlobal, ReusePerType: sr.ReusePerType,
		BloomAccuracy: sr.BloomAccuracy}, nil
}

// variant returns the i-th distinct result derived from base.
func variant(base Result, i int) Result {
	base.Sim.Cycles += float64(i)
	return base
}

func TestForeignTypeSection(t *testing.T) {
	dir := t.TempDir()
	child := exec.Command(os.Args[0], "-test.run=^$")
	child.Env = append(os.Environ(), foreignWriterEnv+"="+dir)
	if out, err := child.CombinedOutput(); err != nil {
		t.Fatalf("foreign writer: %v\n%s", err, out)
	}
	base, err := goldenResult()
	if err != nil {
		t.Fatal(err)
	}
	writer := NewStoreMemo(openStore(t, dir))
	for i := 0; i < foreignEntries; i++ {
		writer.Put(fmt.Sprintf("native-%d", i), variant(base, i))
	}

	s := openStore(t, dir)
	section := func(key string) []byte {
		t.Helper()
		b, ok := s.Get(key)
		if !ok {
			t.Fatalf("%s: no entry", key)
		}
		n := typeSectionLen(b)
		if n < 0 {
			t.Fatalf("%s: entry does not frame as gob messages", key)
		}
		return b[:n]
	}
	native, foreign := section("native-0"), section("foreign-0")
	if bytes.Equal(native, foreign) {
		t.Fatal("the foreign writer produced the native type section")
	}
	t.Logf("type sections: native %d bytes, foreign %d bytes", len(native), len(foreign))

	fb, _ := s.Get("foreign-0")
	if *update {
		if err := os.WriteFile(foreignGolden, fb, 0o666); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(foreignGolden); err != nil || !bytes.Equal(fb, want) {
		t.Fatalf("foreign writer's entry differs from %s (err %v)", foreignGolden, err)
	}

	// One memo, both kinds interleaved, runs of each: the primed decoder
	// follows the section of the last entry it decoded.
	m := NewStoreMemo(s).(*storeMemo)
	for _, k := range []struct {
		kind string
		i    int
	}{
		{"native", 0}, {"native", 1}, {"foreign", 0}, {"foreign", 1},
		{"native", 2}, {"foreign", 2}, {"foreign", 3}, {"native", 3},
	} {
		key := fmt.Sprintf("%s-%d", k.kind, k.i)
		got, ok := m.Get(key)
		if want := variant(base, k.i); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s decodes to %+v (ok=%v), want %+v", key, got, ok, want)
		}
		if want := section(key); !bytes.Equal(m.section, want) {
			t.Fatalf("after %s the decoder is primed with a %d-byte section, want its own %d bytes",
				key, len(m.section), len(want))
		}
	}
}

func TestStoreMemoDropsFailedDecoder(t *testing.T) {
	entry, err := os.ReadFile(goldenEntry)
	if err != nil {
		t.Fatal(err)
	}
	m := &storeMemo{}
	want, ok := m.decode(entry)
	if !ok || m.dec == nil {
		t.Fatalf("golden entry: ok=%v, primed=%v", ok, m.dec != nil)
	}
	// A truncated value message does not frame, so a fresh decoder fails
	// on it and the primed one is not involved.
	if _, ok := m.decode(entry[:len(entry)-1]); ok {
		t.Fatal("truncated entry decoded")
	}
	if m.dec == nil {
		t.Fatal("a fresh decoder's failure dropped the primed one")
	}
	// Same section, then a framed value message of the wrong type (id 1,
	// bool): the primed decoder itself fails, and is dropped.
	n := typeSectionLen(entry)
	if _, ok := m.decode(append(entry[:n:n], 0x01, 0x02)); ok {
		t.Fatal("a bool decoded as a stored result")
	}
	if m.dec != nil || m.section != nil {
		t.Fatal("a decoder that failed was kept")
	}
	if got, ok := m.decode(entry); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("after a failure the golden entry decodes to %+v (ok=%v)", got, ok)
	}
}

// TestStoreMemoConcurrentDecode: pool workers share one memo, so its
// primed decoder is taken and replaced from many goroutines at once while
// entries of two type sections alternate (meaningful under -race).
func TestStoreMemoConcurrentDecode(t *testing.T) {
	entries := make([][]byte, 2)
	for i, path := range []string{goldenEntry, foreignGolden} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		entries[i] = b
	}
	want, err := goldenResult()
	if err != nil {
		t.Fatal(err)
	}
	m := &storeMemo{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sr, ok := m.decode(entries[(g+i)%len(entries)])
				if !ok || !reflect.DeepEqual(sr.Sim, want.Sim) {
					t.Errorf("goroutine %d, decode %d: ok=%v", g, i, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestTypeSectionLen(t *testing.T) {
	entry, err := os.ReadFile(goldenEntry)
	if err != nil {
		t.Fatal(err)
	}
	n := typeSectionLen(entry)
	if n <= 0 || n >= len(entry) {
		t.Fatalf("golden entry (%d bytes) splits at %d", len(entry), n)
	}
	// The section alone wants a value; after the whole entry, the value
	// message alone decodes again.
	var sr storedResult
	if err := gob.NewDecoder(bytes.NewReader(entry[:n])).Decode(&sr); err != io.ErrUnexpectedEOF {
		t.Fatalf("section alone: %v, want unexpected EOF", err)
	}
	in := bytes.NewReader(entry)
	dec := gob.NewDecoder(in)
	if err := dec.Decode(&sr); err != nil {
		t.Fatal(err)
	}
	in.Reset(entry[n:])
	var again storedResult
	if err := dec.Decode(&again); err != nil || !reflect.DeepEqual(again, sr) {
		t.Fatalf("value message alone: %v", err)
	}
	for _, b := range [][]byte{nil, {0x05}, {0x81}, {0xFF, 0x01}, {0x00}, {0x02, 0x03}} {
		if got := typeSectionLen(b); got != -1 {
			t.Errorf("typeSectionLen(%x) = %d, want -1", b, got)
		}
	}
	if got := typeSectionLen([]byte{0x01, 0x02}); got != 0 {
		t.Errorf("a lone value message splits at %d, want 0", got)
	}
}

// sameStored compares decoded results. Arbitrary bytes can decode to NaN,
// which reflect.DeepEqual never equates, so values that are not deeply
// equal must at least gob-encode to the same bytes (bit-exact floats).
func sameStored(t *testing.T, a, b storedResult) bool {
	if reflect.DeepEqual(a, b) {
		return true
	}
	var ea, eb bytes.Buffer
	if err := gob.NewEncoder(&ea).Encode(a); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&eb).Encode(b); err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ea.Bytes(), eb.Bytes())
}

// FuzzStoredResultDecode: for any bytes the memo's decode and a fresh
// gob.Decoder agree on success and on the value, and whatever the input
// did to the memo's decoder, a valid entry still decodes correctly after
// it. One memo serves every input, so inputs also exercise each other's
// leftover state.
func FuzzStoredResultDecode(f *testing.F) {
	entry, err := os.ReadFile(goldenEntry)
	if err != nil {
		f.Fatal(err)
	}
	foreign, err := os.ReadFile(foreignGolden)
	if err != nil {
		f.Fatal(err)
	}
	var zero bytes.Buffer
	if err := gob.NewEncoder(&zero).Encode(storedResult{}); err != nil {
		f.Fatal(err)
	}
	n := typeSectionLen(entry)
	f.Add(entry)
	f.Add(foreign)
	f.Add(zero.Bytes())
	for _, cut := range []int{0, 1, n - 1, n, n + 1, len(entry) - 1} {
		f.Add(entry[:cut])
	}
	for _, at := range []int{0, 1, n / 2, n - 1, n, n + 1, n + 2, len(entry) - 1} {
		flipped := bytes.Clone(entry)
		flipped[at] ^= 0x40
		f.Add(flipped)
	}
	f.Add(append(bytes.Clone(entry), 0x03, 0x04, 0x05))

	m := &storeMemo{}
	want, ok := m.decode(entry)
	if !ok {
		f.Fatal("golden entry does not decode")
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, ok := m.decode(b)
		var ref storedResult
		err := gob.NewDecoder(bytes.NewReader(b)).Decode(&ref)
		if ok != (err == nil) {
			t.Fatalf("memo decode ok=%v, fresh decoder err=%v", ok, err)
		}
		if ok && !sameStored(t, got, ref) {
			t.Fatalf("memo decoded %+v, fresh decoder %+v", got, ref)
		}
		if got, ok := m.decode(entry); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("after this input the golden entry decodes to %+v (ok=%v)", got, ok)
		}
	})
}

// BenchmarkStoredDecode: decoding one real stored entry (the pinned tiny
// job) with a fresh gob.Decoder, as every warm Get did before the memo
// kept a primed one, and with the memo's decoder primed by an earlier
// entry of the same type section. CI holds fresh/primed at
// benchgate -min-decode-speedup.
func BenchmarkStoredDecode(b *testing.B) {
	entry, err := os.ReadFile(goldenEntry)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sr storedResult
			if err := gob.NewDecoder(bytes.NewReader(entry)).Decode(&sr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("primed", func(b *testing.B) {
		m := &storeMemo{}
		if _, ok := m.decode(entry); !ok {
			b.Fatal("golden entry does not decode")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := m.decode(entry); !ok {
				b.Fatal("primed decode failed")
			}
		}
	})
}
