package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"

	"slicc/internal/cache"
)

func TestInsertContains(t *testing.T) {
	f := New(Config{Bits: 512})
	f.Insert(42)
	if !f.Contains(42) {
		t.Fatal("inserted block not found")
	}
	if f.Entries() != 1 {
		t.Fatalf("Entries = %d", f.Entries())
	}
}

func TestRemove(t *testing.T) {
	f := New(Config{Bits: 512})
	f.Insert(42)
	f.Remove(42)
	if f.Contains(42) {
		t.Fatal("removed block still present")
	}
	if f.Entries() != 0 {
		t.Fatalf("Entries = %d", f.Entries())
	}
}

func TestDoubleInsertSingleRemove(t *testing.T) {
	f := New(Config{Bits: 512})
	f.Insert(7)
	f.Insert(7)
	f.Remove(7)
	if !f.Contains(7) {
		t.Fatal("block with one outstanding reference reported absent")
	}
}

func TestNewPanics(t *testing.T) {
	for _, cfg := range []Config{{Bits: 100}, {Bits: -4}, {Bits: 64, Hashes: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestReset(t *testing.T) {
	f := New(Config{Bits: 512})
	for b := uint64(0); b < 100; b++ {
		f.Insert(b)
	}
	f.Reset()
	if f.Entries() != 0 {
		t.Fatal("entries survived reset")
	}
	miss := 0
	for b := uint64(0); b < 100; b++ {
		if !f.Contains(b) {
			miss++
		}
	}
	if miss != 100 {
		t.Fatalf("%d/100 blocks still present after reset", 100-miss)
	}
}

func TestSizeBits(t *testing.T) {
	f := New(Config{Bits: 2048})
	if f.SizeBits() != 2048 {
		t.Fatalf("SizeBits = %d", f.SizeBits())
	}
}

// Property: no false negatives under any interleaving of paired
// insert/remove operations.
func TestPropNoFalseNegatives(t *testing.T) {
	f := func(ops []uint16) bool {
		fl := New(Config{Bits: 1024})
		resident := map[uint64]int{}
		for _, op := range ops {
			block := uint64(op % 256)
			if op&0x8000 != 0 && resident[block] > 0 {
				fl.Remove(block)
				resident[block]--
			} else {
				fl.Insert(block)
				resident[block]++
			}
		}
		for block, n := range resident {
			if n > 0 && !fl.Contains(block) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Entries never goes negative and matches the insert/remove
// balance.
func TestPropEntriesBalance(t *testing.T) {
	f := func(ops []uint8) bool {
		fl := New(Config{Bits: 256})
		want := 0
		for _, op := range ops {
			if op&1 == 0 {
				fl.Insert(uint64(op))
				want++
			} else {
				fl.Remove(uint64(op))
				if want > 0 {
					want--
				}
			}
		}
		return fl.Entries() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestAccuracyImprovesWithSize reproduces the Figure 9 trend in miniature: a
// filter mirroring a 32KB cache gets more accurate as it grows.
func TestAccuracyImprovesWithSize(t *testing.T) {
	acc := make(map[int]float64)
	for _, bits := range []int{512, 8192} {
		c := cache.New(cache.Config{SizeBytes: 32 * 1024, BlockBytes: 64, Ways: 8})
		f := New(Config{Bits: bits})
		c.OnInsert = f.Insert
		c.OnEvict = f.Remove
		var tr AccuracyTracker
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 200000; i++ {
			addr := uint64(rng.Intn(2048)) * 64 // 128KB footprint: 4x the cache
			filterHit := f.Contains(c.BlockAddr(addr))
			res := c.Access(addr, false)
			tr.Record(filterHit, res.Hit)
		}
		acc[bits] = tr.Accuracy()
	}
	if acc[8192] < acc[512] {
		t.Fatalf("accuracy did not improve with size: 512b=%.4f 8192b=%.4f", acc[512], acc[8192])
	}
	if acc[8192] < 0.99 {
		t.Fatalf("8K-bit filter accuracy %.4f < 0.99", acc[8192])
	}
}

func TestAccuracyTrackerEmpty(t *testing.T) {
	var tr AccuracyTracker
	if tr.Accuracy() != 1 {
		t.Fatal("empty tracker should report 1")
	}
	tr.Record(true, false)
	if tr.Accuracy() != 0 {
		t.Fatal("one disagreement should report 0")
	}
}

func BenchmarkInsertRemove(b *testing.B) {
	f := New(Config{Bits: 2048})
	for i := 0; i < b.N; i++ {
		f.Insert(uint64(i))
		f.Remove(uint64(i))
	}
}

func BenchmarkContains(b *testing.B) {
	f := New(Config{Bits: 2048})
	for i := uint64(0); i < 512; i++ {
		f.Insert(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(uint64(i) & 1023)
	}
}

// SizeBits returns the nominal hardware size in bits (one presence bit per
// bucket, which is what the paper's Figure 9 and Table 3 count; the
// reference counters are bookkeeping to support eviction).
func (f *Filter) SizeBits() int { return f.cfg.Bits }
