package memsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// dedupEntries folds a raw access stream into per-line aggregates the way
// the engine's collection loop does: one BatchEntry per distinct line with
// its access count and last batch-global position, in first-access order.
func dedupEntries(addrs []uint64) []BatchEntry {
	idx := map[uint64]int{}
	var entries []BatchEntry
	for i, a := range addrs {
		line := a / LineSize
		if k, ok := idx[line]; ok {
			entries[k].Count++
			entries[k].Last = uint32(i)
			continue
		}
		idx[line] = len(entries)
		entries = append(entries, BatchEntry{Line: line, Count: 1, Last: uint32(i)})
	}
	return entries
}

// priceGrouped prices one state phase the way the engine does: group the
// per-line aggregates and settle them with TouchGrouped, or — when the
// grouping refuses — price the raw stream in order with TouchTally. It
// reports whether the grouping refused.
func priceGrouped(c *Cache, addrs []uint64, sc *BatchScratch, t *Tally) (refused bool) {
	if g, ok := c.GroupEntries(dedupEntries(addrs), sc); ok {
		c.TouchGrouped(&g, t)
		return false
	}
	for _, a := range addrs {
		c.TouchTally(a, t)
	}
	return true
}

// TestGroupedStateWithFallbackEquivalence is the property the state phase
// rests on: pricing a batch from its per-line aggregates (GroupEntries +
// TouchGrouped), with the in-order TouchTally fallback where the grouping
// refuses, is observably equivalent to touching the raw addresses one by
// one in program order with Touch — same counters, same final LRU behavior.
// The address distribution is skewed (power-law-ish hubs over a small
// cache) so batches carry the repeated lines and evictions the hot path
// sees, plus enough spread that some batches carry more distinct lines per
// set than the cache has ways; the test fails if no batch exercised the
// fallback.
func TestGroupedStateWithFallbackEquivalence(t *testing.T) {
	cfg := Config{SizeBytes: 4 << 10, Ways: 4} // 16 sets: conflicts are common
	refusals := 0
	f := func(seed int64, batchSizes []uint8) bool {
		if len(batchSizes) == 0 {
			return true
		}
		inOrder, err := NewCache(cfg)
		if err != nil {
			return false
		}
		grouped, _ := NewCache(cfg)
		rng := rand.New(rand.NewSource(seed))
		var inCtr, grpCtr Counters
		var tally Tally
		var sc BatchScratch
		for _, bs := range batchSizes {
			n := int(bs%97) + 1
			addrs := make([]uint64, n)
			for i := range addrs {
				if rng.Intn(3) == 0 {
					addrs[i] = uint64(rng.Intn(8)) * LineSize
				} else {
					addrs[i] = uint64(rng.Intn(1 << 14))
				}
			}
			for _, a := range addrs {
				inOrder.Touch(a, &inCtr)
			}
			if priceGrouped(grouped, addrs, &sc, &tally) {
				refusals++
			}
		}
		grouped.FlushTally(tally, &grpCtr)
		if inCtr.Hits != grpCtr.Hits ||
			inCtr.Misses != grpCtr.Misses ||
			inCtr.Instructions != grpCtr.Instructions {
			return false
		}
		if inOrder.TotalHits() != grouped.TotalHits() || inOrder.TotalMisses() != grouped.TotalMisses() {
			return false
		}
		// Behavioral LRU probe: any divergence in resident tags or victim
		// ordering left behind by the replay shows up as a miss mismatch on
		// a fresh conflicting stream.
		for i := 0; i < 1024; i++ {
			addr := uint64(rng.Intn(1 << 14))
			if inOrder.Touch(addr, nil) != grouped.Touch(addr, nil) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if refusals == 0 {
		t.Fatal("no batch overflowed a set: the in-order fallback went untested")
	}
}

// TestGroupedStateOverflowRefusesWithoutMutation pins the refusal contract:
// a batch with more distinct lines in one set than the cache has ways must
// make GroupEntries return false and leave every set untouched, so the
// caller's in-order fallback starts from exact state.
func TestGroupedStateOverflowRefusesWithoutMutation(t *testing.T) {
	cfg := Config{SizeBytes: 4 << 10, Ways: 4} // 16 sets
	c, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, _ := NewCache(cfg)
	// Warm both caches identically so refusal-after-warmth is covered.
	for i := 0; i < 64; i++ {
		addr := uint64(i%11) * 64 * 16 // all in set 0
		c.Touch(addr, nil)
		twin.Touch(addr, nil)
	}
	// 5 distinct lines of set 0 > 4 ways: must refuse.
	var entries []BatchEntry
	for i := 0; i < 5; i++ {
		entries = append(entries, BatchEntry{Line: uint64(i * 16), Count: 2, Last: uint32(2*i + 1)})
	}
	var sc BatchScratch
	if _, ok := c.GroupEntries(entries, &sc); ok {
		t.Fatal("GroupEntries accepted a set-group wider than the ways")
	}
	if c.TotalHits()+c.TotalMisses() != twin.TotalHits()+twin.TotalMisses() {
		t.Fatal("refused grouping counted accesses")
	}
	// The refused cache must behave exactly like the untouched twin.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 512; i++ {
		addr := uint64(rng.Intn(1 << 14))
		if c.Touch(addr, nil) != twin.Touch(addr, nil) {
			t.Fatalf("refusal mutated cache state (diverged at probe %d)", i)
		}
	}
}

// TestTouchEntriesEmpty pins the degenerate case of the grouped path: an
// empty batch groups to nothing and touches nothing.
func TestTouchEntriesEmpty(t *testing.T) {
	c, err := NewCache(Config{SizeBytes: 8 << 10, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sc BatchScratch
	var tally Tally
	g, ok := c.GroupEntries(nil, &sc)
	if !ok || len(g.Eg) != 0 {
		t.Fatal("empty grouping refused or non-empty")
	}
	c.TouchGrouped(&g, &tally)
	if tally.Accesses() != 0 || c.TotalHits()+c.TotalMisses() != 0 {
		t.Fatalf("empty batch counted accesses: tally=%+v", tally)
	}
}

// TestTouchBatchEmpty prices an empty batch and then small ones through the
// engine's grouped-or-fallback path, reusing one scratch across caches of
// different geometry: the empty batch counts nothing and the tally
// accumulates exactly one access per address.
func TestTouchBatchEmpty(t *testing.T) {
	c, err := NewCache(Config{SizeBytes: 8 << 10, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sc BatchScratch
	var tally Tally
	priceGrouped(c, nil, &sc, &tally)
	if tally.Accesses() != 0 || c.TotalHits()+c.TotalMisses() != 0 {
		t.Fatalf("empty batch counted accesses: tally=%+v", tally)
	}
	priceGrouped(c, []uint64{0, 64, 0}, &sc, &tally)
	if got := tally.Accesses(); got != 3 {
		t.Fatalf("batch of 3 accounted %d accesses", got)
	}
	// A bigger cache must resize the scratch's per-set counters transparently.
	big, err := NewCache(Config{SizeBytes: 64 << 10, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	priceGrouped(big, []uint64{0, 1 << 13, 64}, &sc, &tally)
	if got := tally.Accesses(); got != 6 {
		t.Fatalf("cumulative tally accounted %d accesses, want 6", got)
	}
}
