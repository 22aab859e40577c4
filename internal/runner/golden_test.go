package runner

// The stored-result entry bytes, pinned against a file generated at the
// commit before the primed decoder: the reader changed, the writer must
// not, so a store warmed by either binary keeps warming the other. To
// change the entry format on purpose (it needs a jobKeyVersion bump):
// go test ./internal/runner -run TestStoredEntryGolden -update

import (
	"bytes"
	"context"
	"flag"
	"os"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tiny-job.entry from the running code")

const goldenEntry = "testdata/tiny-job.entry"

// tinyEntry runs tinyJob through a store-backed pool and returns the entry
// its memo wrote, with the result the pool returned.
func tinyEntry(t testing.TB) ([]byte, Result) {
	t.Helper()
	s := openStore(t, t.TempDir())
	rs, err := New(Options{Workers: 1, Memo: NewStoreMemo(s)}).Run(context.Background(), []Job{tinyJob()})
	if err != nil {
		t.Fatal(err)
	}
	b, ok := s.Get(JobKey(tinyJob()))
	if !ok {
		t.Fatal("tiny job left no store entry")
	}
	return b, rs[0]
}

func TestStoredEntryGolden(t *testing.T) {
	got, res := tinyEntry(t)
	if *update {
		if err := os.WriteFile(goldenEntry, got, 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenEntry)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the writer no longer reproduces %s byte for byte (%d bytes, pinned %d)", goldenEntry, len(got), len(want))
	}
	// The pinned bytes replay as the executed result through a cold memo.
	s := openStore(t, t.TempDir())
	if err := s.Put("golden", want); err != nil {
		t.Fatal(err)
	}
	dec, ok := NewStoreMemo(s).Get("golden")
	if !ok || !reflect.DeepEqual(dec, res) {
		t.Fatalf("pinned entry decodes to %+v (ok=%v), want %+v", dec, ok, res)
	}
}
