package memsim

import (
	"testing"
	"testing/quick"
)

func TestNewCacheValidation(t *testing.T) {
	if _, err := NewCache(Config{SizeBytes: 1024, Ways: 0}); err == nil {
		t.Fatal("expected error for zero ways")
	}
	if _, err := NewCache(Config{SizeBytes: 64, Ways: 16}); err == nil {
		t.Fatal("expected error for cache smaller than one set")
	}
}

func TestColdMissThenHit(t *testing.T) {
	c, err := NewCache(DefaultConfig(64 << 10))
	if err != nil {
		t.Fatal(err)
	}
	var ctr Counters
	if miss := c.Touch(0, &ctr); !miss {
		t.Fatal("first touch should miss")
	}
	if miss := c.Touch(8, &ctr); miss {
		t.Fatal("second touch of same line should hit")
	}
	if ctr.Hits != 1 || ctr.Misses != 1 {
		t.Fatalf("counters = %d hits / %d misses, want 1/1", ctr.Hits, ctr.Misses)
	}
	if ctr.LPI() != 0.5 {
		t.Fatalf("LPI = %v, want 0.5", ctr.LPI())
	}
}

func TestLRUEvictionWithinSet(t *testing.T) {
	// 2-way cache with enough size for a few sets.
	c, err := NewCache(Config{SizeBytes: 4 * 64 * 2, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	sets := c.numSets
	// Three distinct lines mapping to set 0.
	a := uint64(0)
	b := sets * LineSize
	d := 2 * sets * LineSize
	c.Touch(a, nil) // miss, resident {a}
	c.Touch(b, nil) // miss, resident {a,b}
	c.Touch(d, nil) // miss, evicts a (LRU)
	if miss := c.Touch(b, nil); miss {
		t.Fatal("b should still be resident")
	}
	if miss := c.Touch(a, nil); !miss {
		t.Fatal("a should have been evicted")
	}
}

func TestWorkingSetSmallerThanCacheNeverEvicts(t *testing.T) {
	c, err := NewCache(DefaultConfig(64 << 10))
	if err != nil {
		t.Fatal(err)
	}
	lines := c.SizeBytes() / LineSize / 2 // half capacity
	for pass := 0; pass < 3; pass++ {
		for l := int64(0); l < lines; l++ {
			miss := c.Touch(uint64(l*LineSize), nil)
			if pass > 0 && miss {
				t.Fatalf("pass %d line %d missed; working set fits", pass, l)
			}
		}
	}
	if got, want := c.TotalMisses(), uint64(lines); got != want {
		t.Fatalf("misses = %d, want %d cold misses", got, want)
	}
}

// touchRange simulates a sequential scan of [addr, addr+n), one Touch per
// line, and reports the number of line misses.
func touchRange(c *Cache, addr, n uint64) int {
	if n == 0 {
		return 0
	}
	misses := 0
	for l := addr / LineSize; l <= (addr+n-1)/LineSize; l++ {
		if c.Touch(l*LineSize, nil) {
			misses++
		}
	}
	return misses
}

func TestTouchRangeCountsLines(t *testing.T) {
	c, _ := NewCache(DefaultConfig(64 << 10))
	misses := touchRange(c, 0, 256) // 4 lines
	if misses != 4 {
		t.Fatalf("misses = %d, want 4", misses)
	}
	if c.SwappedBytes() != 4*LineSize {
		t.Fatalf("swapped = %d, want %d", c.SwappedBytes(), 4*LineSize)
	}
	// Unaligned range crossing a line boundary.
	c.Reset()
	misses = touchRange(c, 60, 8) // spans lines 0 and 1
	if misses != 2 {
		t.Fatalf("misses = %d, want 2", misses)
	}
}

func TestResetClears(t *testing.T) {
	c, _ := NewCache(DefaultConfig(64 << 10))
	c.Touch(0, nil)
	c.Reset()
	if c.TotalMisses() != 0 || c.TotalHits() != 0 {
		t.Fatal("counters not reset")
	}
	if !c.Touch(0, nil) {
		t.Fatal("contents not reset; touch should miss")
	}
}

func TestMissRateBounds(t *testing.T) {
	// Property: miss rate is always within [0,1] and hits+misses equals the
	// number of touches.
	f := func(addrs []uint16) bool {
		c, err := NewCache(Config{SizeBytes: 8 << 10, Ways: 4})
		if err != nil {
			return false
		}
		for _, a := range addrs {
			c.Touch(uint64(a), nil)
		}
		if c.TotalHits()+c.TotalMisses() != uint64(len(addrs)) {
			return false
		}
		r := c.MissRate()
		return r >= 0 && r <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSharedVsPrivateAddressStreams(t *testing.T) {
	// The core claim behind GraphM's LLC benefit: two jobs scanning the
	// *same* address range miss half as often as two jobs scanning two
	// disjoint copies of equal total size larger than the cache.
	cfg := Config{SizeBytes: 32 << 10, Ways: 8}
	streamLen := uint64(64 << 10) // 2× cache size

	shared, _ := NewCache(cfg)
	// Job A then job B over the same addresses, chunk by chunk so reuse is
	// temporal (as GraphM's chunk synchronization arranges).
	chunkB := uint64(8 << 10)
	for off := uint64(0); off < streamLen; off += chunkB {
		touchRange(shared, off, chunkB) // job A
		touchRange(shared, off, chunkB) // job B reuses
	}

	private, _ := NewCache(cfg)
	for off := uint64(0); off < streamLen; off += chunkB {
		touchRange(private, off, chunkB)       // job A copy 1
		touchRange(private, 1<<30+off, chunkB) // job B copy 2
	}

	if shared.TotalMisses() >= private.TotalMisses() {
		t.Fatalf("shared stream misses %d, private %d; sharing should miss less",
			shared.TotalMisses(), private.TotalMisses())
	}
}

// TestShardedTotalsSum checks that Touch and FlushTally both land in the
// cache-wide totals, over more flushes than the 64 slots the totals were
// once sharded across, and that Reset zeroes them.
func TestShardedTotalsSum(t *testing.T) {
	c, err := NewCache(Config{SizeBytes: 8 << 10, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Touch(uint64(i)*LineSize, nil) // 100 distinct lines: all miss
	}
	for i := 0; i < 130; i++ {
		c.FlushTally(Tally{Hits: 2, Misses: 1}, nil)
	}
	if got := c.TotalMisses(); got != 100+130 {
		t.Fatalf("TotalMisses = %d, want %d", got, 230)
	}
	if got := c.TotalHits(); got != 260 {
		t.Fatalf("TotalHits = %d, want %d", got, 260)
	}
	c.Reset()
	if c.TotalHits() != 0 || c.TotalMisses() != 0 {
		t.Fatal("Reset left the totals non-zero")
	}
}
