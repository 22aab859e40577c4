package store

// Tests for Stats' remembered listing (package docs, "Stats"). They are
// deterministic: a directory is made "old" by setting its mtime with
// os.Chtimes, never by sleeping, and listings are counted through
// Store.listings.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// age sets dir's mtime to d before now, as if its last write were that
// long ago. Each call in a test uses its own d: returning a *changed*
// directory to an mtime a Store has remembered is the one forgery the
// mtime rule cannot see.
func age(t testing.TB, dir string, d time.Duration) {
	t.Helper()
	at := time.Now().Add(-d)
	if err := os.Chtimes(dir, at, at); err != nil {
		t.Fatal(err)
	}
}

// diskUsage is the reference the cache must agree with: a fresh listing.
func diskUsage(t testing.TB, dir string) (entries int, bytes int64) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+suffix))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		fi, err := os.Stat(n)
		if err != nil {
			t.Fatal(err)
		}
		entries++
		bytes += fi.Size()
	}
	return entries, bytes
}

// wantExact asserts s.Stats() equals a fresh listing of the directory.
func wantExact(t testing.TB, s *Store, when string) {
	t.Helper()
	st, err := s.Stats()
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if e, b := diskUsage(t, s.Dir()); st.Entries != e || st.Bytes != b {
		t.Fatalf("%s: Stats = %d entries / %d bytes, directory holds %d / %d", when, st.Entries, st.Bytes, e, b)
	}
}

func putN(t testing.TB, s *Store, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("%s-%d", prefix, i), []byte("payload-"+prefix)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStatsQuiescentListsOnce(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	putN(t, s, "k", 5)
	// Get touches entry files, not the directory: it must not invalidate.
	age(t, s.Dir(), time.Hour)
	before := s.listings.Load()
	for i := 0; i < 50; i++ {
		wantExact(t, s, "aged directory")
		if _, ok := s.Get("k-1"); !ok {
			t.Fatal("miss")
		}
	}
	if got := s.listings.Load() - before; got != 1 {
		t.Fatalf("50 Stats calls on an unchanged, aged directory listed it %d times, want 1", got)
	}
}

func TestStatsYoungDirectoryNeverRemembered(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	putN(t, s, "k", 3)
	for _, c := range []struct {
		name string
		age  time.Duration
	}{
		{"just written", 0},
		{"inside the window", statsRacyWindow / 2},
		{"mtime ahead of the clock", -time.Hour},
	} {
		name := c.name
		age(t, s.Dir(), c.age)
		before := s.listings.Load()
		for i := 0; i < 4; i++ {
			wantExact(t, s, name)
		}
		if got := s.listings.Load() - before; got != 4 {
			t.Errorf("%s: 4 Stats calls listed %d times, want 4 (nothing may be remembered)", name, got)
		}
	}
}

func TestStatsOwnWritesInvalidate(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	putN(t, s, "k", 3)

	remember := func(d time.Duration) {
		t.Helper()
		age(t, s.Dir(), d)
		wantExact(t, s, "before the write")
	}
	remember(time.Hour)
	putN(t, s, "new", 1)
	wantExact(t, s, "after Put")

	remember(2 * time.Hour)
	if err := deleteEntry(s, "k-0"); err != nil {
		t.Fatal(err)
	}
	wantExact(t, s, "after Delete")

	// Repair by rename: a torn entry under the final name is replaced by
	// the next Put of its key, which changes Bytes but not Entries.
	corrupt(t, entryPath(t, s, "k-1"), func(b []byte) []byte { return b[:len(b)-3] })
	remember(3 * time.Hour)
	putN(t, s, "k", 2) // k-0 is new again, k-1 is repaired
	wantExact(t, s, "after repair")
}

// TestStatsSeesForeignWrites is the case a process-local counter gets
// wrong: every change is made by other Stores on the shared directory.
func TestStatsSeesForeignWrites(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	other := mustOpen(t, dir, Options{})
	putN(t, other, "k", 6)

	age(t, dir, time.Hour)
	wantExact(t, s, "remembered, 6 foreign entries")
	putN(t, other, "more", 2)
	wantExact(t, s, "after a foreign Put")

	age(t, dir, 2*time.Hour)
	wantExact(t, s, "remembered, 8 entries")
	if err := deleteEntry(other, "k-3"); err != nil {
		t.Fatal(err)
	}
	wantExact(t, s, "after a foreign Delete")

	age(t, dir, 3*time.Hour)
	wantExact(t, s, "remembered, 7 entries")
	_, bytes := diskUsage(t, dir)
	budgeted := mustOpen(t, dir, Options{MaxBytes: bytes / 2})
	putN(t, budgeted, "evictor", 1)
	if st, _ := budgeted.Stats(); st.DiskEvictions == 0 {
		t.Fatal("the budgeted Put evicted nothing; the test needs a smaller budget")
	}
	wantExact(t, s, "after a foreign eviction")
}

func TestStatsClosedStore(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	putN(t, s, "k", 2)
	age(t, s.Dir(), time.Hour)
	wantExact(t, s, "remembered")
	s.Close()
	if _, err := s.Stats(); err == nil {
		t.Fatal("Stats on a closed store answered from the remembered listing")
	}
}

// TestStatsConcurrent races Stats against Put and Delete (meaningful under
// -race), then checks the settled store: exact, and one listing shared by
// concurrent callers.
func TestStatsConcurrent(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				key := fmt.Sprintf("g%d-%d", g, i)
				if err := s.Put(key, []byte(key)); err != nil {
					t.Error(err)
				}
				if i%3 == 0 {
					if err := deleteEntry(s, key); err != nil {
						t.Error(err)
					}
				}
				if _, err := s.Stats(); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	wantExact(t, s, "settled, young")

	age(t, s.Dir(), time.Hour)
	before := s.listings.Load()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := s.Stats()
			if e, b := diskUsage(t, s.Dir()); err != nil || st.Entries != e || st.Bytes != b {
				t.Errorf("Stats = %+v, %v; directory holds %d / %d", st, err, e, b)
			}
		}()
	}
	wg.Wait()
	if got := s.listings.Load() - before; got != 1 {
		t.Fatalf("8 concurrent Stats calls on an aged directory listed it %d times, want 1", got)
	}
}

// BenchmarkStats is the read the stats endpoints pay, over 512 entries:
// quiescent is an unchanged directory past the racy window (one stat),
// scanning a directory that looks recently written (stat, list, one lstat
// per entry, stat) — what every call cost before the listing was
// remembered. cmd/benchgate holds their ratio (-min-stats-speedup).
func BenchmarkStats(b *testing.B) {
	for _, c := range []struct {
		name string
		age  time.Duration
	}{
		{"quiescent", time.Hour},
		{"scanning", -time.Hour}, // an mtime ahead of the clock is never remembered
	} {
		b.Run(c.name, func(b *testing.B) {
			s := mustOpen(b, b.TempDir(), Options{})
			putN(b, s, "k", 512)
			age(b, s.Dir(), c.age)
			wantExact(b, s, "first listing") // the one listing quiescent ever takes
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if st, err := s.Stats(); err != nil || st.Entries != 512 {
					b.Fatalf("Stats = %+v, %v", st, err)
				}
			}
		})
	}
}
