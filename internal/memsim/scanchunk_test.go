package memsim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// edgeSize is the engine's edge record size (graph.EdgeSize): ~5.3 records
// per 64B line, so line-runs have lengths 5 and 6 and records straddle
// line boundaries.
const edgeSize = 12

// TestScanChunkEquivalentToTouches is the property the stream phase rests
// on: ScanChunk over nEdges records is observably equivalent to one Touch
// per record in storage order — the same hit/miss counts accumulate, and
// the cache is left in the same LRU state. Chunks are random (base address,
// first record, length) on a 64-set cache, and every case also scans a
// chunk that runs over many consecutive sets. The final-state
// comparison is behavioral: after the replay, both caches must answer an
// identical probe stream identically, which exposes any difference in
// resident tags or LRU ordering as a differing miss.
func TestScanChunkEquivalentToTouches(t *testing.T) {
	type op struct {
		Base  uint32
		First uint8
		N     uint8
	}
	cfg := Config{SizeBytes: 16 << 10, Ways: 4} // 64 sets: evictions are common
	f := func(ops []op, probeSeed int64) bool {
		perEdge, err := NewCache(cfg)
		if err != nil {
			return false
		}
		batched, _ := NewCache(cfg)
		// A chunk over six consecutive sets, starting at set 14.
		ops = append([]op{{Base: 14 * LineSize, First: 0, N: 30}}, ops...)
		var perCtr, batCtr Counters
		var tally Tally
		for _, o := range ops {
			base, first, n := uint64(o.Base%(1<<16)), int(o.First), int(o.N)
			for k := 0; k < n; k++ {
				perEdge.Touch(base+uint64(first+k)*edgeSize, &perCtr)
			}
			batched.ScanChunk(base, first, n, edgeSize, &tally)
		}
		batched.FlushTally(tally, &batCtr)
		if perCtr.Hits != batCtr.Hits ||
			perCtr.Misses != batCtr.Misses ||
			perCtr.Instructions != batCtr.Instructions {
			return false
		}
		if perEdge.TotalHits() != batched.TotalHits() ||
			perEdge.TotalMisses() != batched.TotalMisses() {
			return false
		}
		rng := rand.New(rand.NewSource(probeSeed))
		for i := 0; i < 512; i++ {
			addr := uint64(rng.Intn(1 << 16))
			if perEdge.Touch(addr, nil) != batched.Touch(addr, nil) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestScanChunkZeroLength pins the degenerate case: no records, no state
// change, no counts.
func TestScanChunkZeroLength(t *testing.T) {
	c, err := NewCache(DefaultConfig(64 << 10))
	if err != nil {
		t.Fatal(err)
	}
	var tally Tally
	c.ScanChunk(0, 0, 0, edgeSize, &tally)
	if tally.Accesses() != 0 {
		t.Fatalf("zero-length scan tallied %d accesses", tally.Accesses())
	}
	if !c.Touch(0, nil) {
		t.Fatal("zero-length scan changed cache state (line became resident)")
	}
}

// TestFlushTallyConservation checks the flush folds exactly the tallied
// counts into both counter sinks, including the nil-ctr form: per-job
// counters sum to the cache-wide totals, every job's Instructions is its
// Hits+Misses, and Reset zeroes the totals.
func TestFlushTallyConservation(t *testing.T) {
	c, _ := NewCache(DefaultConfig(64 << 10))
	var tally Tally
	for i := 0; i < 100; i++ {
		c.ScanChunk(uint64(i)*LineSize, 0, 3, edgeSize, &tally)
	}
	if got := tally.Accesses(); got != 300 {
		t.Fatalf("tally accesses = %d, want 300", got)
	}
	var ctr Counters
	c.FlushTally(tally, &ctr)
	if ctr.Hits != tally.Hits || ctr.Misses != tally.Misses {
		t.Fatalf("ctr %d/%d after flush, want %d/%d", ctr.Hits, ctr.Misses, tally.Hits, tally.Misses)
	}
	if ctr.Instructions != 300 {
		t.Fatalf("instructions = %d, want 300", ctr.Instructions)
	}
	if c.TotalHits() != tally.Hits || c.TotalMisses() != tally.Misses {
		t.Fatalf("cache totals %d/%d, want %d/%d",
			c.TotalHits(), c.TotalMisses(), tally.Hits, tally.Misses)
	}
	c.FlushTally(Tally{}, nil) // no-op form must not panic or count
	if c.TotalHits() != tally.Hits {
		t.Fatal("empty flush moved the totals")
	}

	// Four jobs take turns on one cache, through both the per-access and
	// the batched entry points, over overlapping regions.
	c.Reset()
	if c.TotalHits() != 0 || c.TotalMisses() != 0 {
		t.Fatal("Reset left the totals non-zero")
	}
	var ctrs [4]Counters
	const perJob = 2000
	for i := 0; i < perJob; i++ {
		for j := range ctrs {
			addr := uint64(j)<<12 + uint64(i%300)*LineSize
			if i%2 == 0 {
				c.Touch(addr, &ctrs[j])
				continue
			}
			var tl Tally
			c.TouchTally(addr, &tl)
			c.FlushTally(tl, &ctrs[j])
		}
	}
	c.FlushTally(Tally{Hits: 2, Misses: 1}, nil) // counted in the totals only
	var hits, misses uint64
	for j := range ctrs {
		if got := ctrs[j].Instructions; got != perJob || got != ctrs[j].Hits+ctrs[j].Misses {
			t.Fatalf("job %d instructions = %d, want %d = hits+misses %d", j, got, perJob, ctrs[j].Hits+ctrs[j].Misses)
		}
		hits += ctrs[j].Hits
		misses += ctrs[j].Misses
	}
	if hits+2 != c.TotalHits() || misses+1 != c.TotalMisses() {
		t.Fatalf("per-job sums (%d/%d) plus the nil flush disagree with cache totals (%d/%d)",
			hits, misses, c.TotalHits(), c.TotalMisses())
	}
	c.Reset()
	if c.TotalHits() != 0 || c.TotalMisses() != 0 || c.MissRate() != 0 {
		t.Fatal("Reset left the totals non-zero")
	}
}

// TestScanChunkRepeatMatchesTouches pins a ScanChunk that repeats the range
// of the call before it, and the accesses that come between two such calls,
// against one Touch per record. On a 4 KB 4-way cache (16 sets, 64 lines),
// range a covers exactly the cache's 64 lines, so it fills every way of
// every set. After each step both caches must have counted the same hits
// and misses and must hold the same lines in every set, in the same
// recency order.
func TestScanChunkRepeatMatchesTouches(t *testing.T) {
	type scan struct {
		base     uint64
		first, n int
		size     uint64
	}
	a := scan{0, 0, 341, edgeSize}           // lines 0..63: the whole cache
	wide := scan{0, 0, 2*341 + 5, edgeSize}  // twice the cache
	shifted := scan{0, 1, 341, edgeSize}     // a's records, one later
	resized := scan{0, 0, 341, 2 * edgeSize} // a's count at another size
	const conflict = 64 * LineSize           // line 64: set 0, outside a
	type step struct {
		name  string
		scan  *scan
		touch []uint64 // TouchTally, or Touch when viaTouch
		group []uint64 // one grouped state phase
		reset bool
		// viaTouch prices touch through Touch instead of TouchTally.
		viaTouch bool
	}
	for _, tc := range []struct {
		name  string
		steps []step
		// allHits names the step that must tally only hits.
		allHits int
	}{
		{"directly after", []step{{name: "scan a", scan: &a}, {name: "repeat a", scan: &a}, {name: "repeat a again", scan: &a}}, 1},
		{"after TouchTally", []step{{name: "scan a", scan: &a}, {name: "TouchTally", touch: []uint64{conflict}}, {name: "repeat a", scan: &a}}, -1},
		{"after Touch", []step{{name: "scan a", scan: &a}, {name: "Touch", touch: []uint64{conflict, 0}, viaTouch: true}, {name: "repeat a", scan: &a}}, -1},
		{"after TouchGrouped", []step{{name: "scan a", scan: &a}, {name: "TouchGrouped", group: []uint64{conflict, 3 * LineSize, conflict}}, {name: "repeat a", scan: &a}}, -1},
		{"after Reset", []step{{name: "scan a", scan: &a}, {name: "Reset", reset: true}, {name: "repeat a", scan: &a}}, -1},
		{"wider than the cache", []step{{name: "scan wide", scan: &wide}, {name: "repeat wide", scan: &wide}}, -1},
		{"after a shifted range", []step{{name: "scan a", scan: &a}, {name: "scan shifted", scan: &shifted}, {name: "repeat a", scan: &a}}, -1},
		{"after another record size", []step{{name: "scan a", scan: &a}, {name: "scan resized", scan: &resized}, {name: "repeat a", scan: &a}}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{SizeBytes: 4 << 10, Ways: 4}
			batched, err := NewCache(cfg)
			if err != nil {
				t.Fatal(err)
			}
			perRecord, _ := NewCache(cfg)
			if batched.numSets*uint64(batched.ways) != 64 {
				t.Fatalf("cache holds %d lines, want 64", batched.numSets*uint64(batched.ways))
			}
			var tally Tally
			var ctr Counters
			var sc BatchScratch
			for i, s := range tc.steps {
				before := tally
				switch {
				case s.scan != nil:
					batched.ScanChunk(s.scan.base, s.scan.first, s.scan.n, s.scan.size, &tally)
					for k := 0; k < s.scan.n; k++ {
						perRecord.Touch(s.scan.base+uint64(s.scan.first+k)*s.scan.size, &ctr)
					}
				case s.touch != nil:
					for _, addr := range s.touch {
						if s.viaTouch {
							var c Counters
							batched.Touch(addr, &c)
							tally.Add(Tally{Hits: c.Hits, Misses: c.Misses})
						} else {
							batched.TouchTally(addr, &tally)
						}
						perRecord.Touch(addr, &ctr)
					}
				case s.group != nil:
					if priceGrouped(batched, s.group, &sc, &tally) {
						t.Fatalf("step %s: grouping refused", s.name)
					}
					for _, addr := range s.group {
						perRecord.Touch(addr, &ctr)
					}
				case s.reset:
					batched.Reset()
					perRecord.Reset()
				}
				if tally.Hits != ctr.Hits || tally.Misses != ctr.Misses {
					t.Fatalf("after %s: batched %d hits / %d misses, per record %d / %d",
						s.name, tally.Hits, tally.Misses, ctr.Hits, ctr.Misses)
				}
				for set := uint64(0); set < batched.numSets; set++ {
					got, _ := batched.residentLines(set)
					want, _ := perRecord.residentLines(set)
					if !slices.Equal(got, want) {
						t.Fatalf("after %s: set %d holds %v, per record %v", s.name, set, got, want)
					}
				}
				if i == tc.allHits {
					if d := tally.Misses - before.Misses; d != 0 || tally.Hits-before.Hits != uint64(s.scan.n) {
						t.Fatalf("%s: %d misses, %d hits; want every one of %d records to hit",
							s.name, d, tally.Hits-before.Hits, s.scan.n)
					}
				}
			}
		})
	}
}
