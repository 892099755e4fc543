package memsim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refLRU is a textbook LRU cache kept only as a differential oracle: per
// set, a list of resident lines with the time of their last use; a hit
// refreshes the time, and a miss on a full set evicts the line with the
// oldest one. It shares no code with Cache.
type refLRU struct {
	ways         int
	numSets      uint64
	sets         [][]refLine
	now          uint64
	hits, misses uint64
}

type refLine struct {
	line    uint64
	lastUse uint64
}

// newRefLRU sizes the reference like the hardware it models: capacity over
// ways over line size, rounded down to a power-of-two number of sets.
func newRefLRU(cfg Config) *refLRU {
	sets := uint64(cfg.SizeBytes) / LineSize / uint64(cfg.Ways)
	n := uint64(1)
	for n*2 <= sets {
		n *= 2
	}
	return &refLRU{ways: cfg.Ways, numSets: n, sets: make([][]refLine, n)}
}

func (r *refLRU) access(addr uint64) {
	line := addr / LineSize
	s := line % r.numSets
	r.now++
	set := r.sets[s]
	for i := range set {
		if set[i].line == line {
			set[i].lastUse = r.now
			r.hits++
			return
		}
	}
	r.misses++
	if len(set) < r.ways {
		r.sets[s] = append(set, refLine{line: line, lastUse: r.now})
		return
	}
	victim := 0
	for i := range set {
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	set[victim] = refLine{line: line, lastUse: r.now}
}

// recency lists set s's resident lines, most recently used first.
func (r *refLRU) recency(s uint64) []uint64 {
	set := slices.Clone(r.sets[s])
	slices.SortFunc(set, func(a, b refLine) int { return cmp.Compare(b.lastUse, a.lastUse) })
	lines := make([]uint64, len(set))
	for i, l := range set {
		lines[i] = l.line
	}
	return lines
}

// residentLines lists set s's resident lines as the cache holds them, top
// of the recency stack first, and reports whether every empty way sits
// below every resident line.
func (c *Cache) residentLines(s uint64) ([]uint64, bool) {
	tags := c.sets[s].tags[:c.ways]
	n := 0
	for n < len(tags) && tags[n] != 0 {
		n++
	}
	lines := make([]uint64, n)
	for i, tag := range tags[:n] {
		lines[i] = (tag-1)<<c.setShift | s
	}
	return lines, !slices.ContainsFunc(tags[n:], func(tag uint64) bool { return tag != 0 })
}

// stateStream draws a state phase's raw addresses: a mix of a few hub lines
// (repeats, so a line's last access can come after other lines' first),
// uniform lines over span, and, in some phases, lines crowded into two sets
// so that set-groups outgrow the ways and GroupEntries refuses.
func stateStream(rng *rand.Rand, numSets, span uint64) []uint64 {
	n := 1 + rng.Intn(int(6*numSets))
	crowd := rng.Intn(4) == 0
	addrs := make([]uint64, n)
	for i := range addrs {
		switch {
		case rng.Intn(3) == 0:
			addrs[i] = uint64(rng.Intn(8)) * 3 * LineSize
		case crowd:
			line := uint64(rng.Intn(int(span/LineSize/numSets)))*numSets + uint64(rng.Intn(2))
			addrs[i] = line * LineSize
		default:
			addrs[i] = rng.Uint64() % span
		}
	}
	return addrs
}

// TestReferenceLRUDifferential drives random mixes of ScanChunk,
// GroupEntries+TouchGrouped (with the TouchTally fallback on refusal),
// TouchTally and Reset through Cache and through refLRU, on several
// geometries. Some ScanChunk calls repeat the previous scan's range:
// directly after it, or after other calls came between; and some ranges
// are wider than the cache. After every call both must have counted the
// same hits and misses and must hold the same resident lines in every set,
// in the same recency order. Unlike the other property tests, which compare
// the batched paths with Touch and so run both sides on the same kernel,
// this one catches a bug in the kernel itself.
func TestReferenceLRUDifferential(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 4 << 10, Ways: 4},
		{SizeBytes: 2 << 10, Ways: 1},
		{SizeBytes: 4 << 10, Ways: 3},
		{SizeBytes: 64 << 10, Ways: 16},
	} {
		t.Run(fmt.Sprintf("%dKB-%dway", cfg.SizeBytes>>10, cfg.Ways), func(t *testing.T) {
			var calls [5]int
			accepted, refused := 0, 0
			repeatsDirect, repeatsLater, wide := 0, 0, 0
			capRecords := int(uint64(cfg.SizeBytes) / edgeSize) // records over the cache's lines
			for seed := int64(0); seed < 30; seed++ {
				c, err := NewCache(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefLRU(cfg)
				if ref.numSets != c.numSets {
					t.Fatalf("reference has %d sets, cache %d", ref.numSets, c.numSets)
				}
				span := 4 * uint64(cfg.SizeBytes)
				rng := rand.New(rand.NewSource(seed))
				var tally Tally
				var sc BatchScratch
				// last is the previous scan's range; prev the previous call.
				var last struct {
					base     uint64
					first, n int
				}
				prev := -1
				for op := 0; op < 150; op++ {
					kind := rng.Intn(4)
					switch {
					case prev == 0 && rng.Intn(2) == 0:
						kind = 3 // half the scans are repeated at once
					case rng.Intn(25) == 0:
						kind = 4
					}
					calls[kind]++
					var call string
					switch kind {
					case 0, 3:
						if kind == 0 {
							last.base, last.first, last.n = rng.Uint64()%span, rng.Intn(32), rng.Intn(300)
							if rng.Intn(8) == 0 {
								last.n = capRecords + rng.Intn(capRecords)
								wide++
							}
						} else if prev == 0 || prev == 3 {
							repeatsDirect++
						} else {
							repeatsLater++
						}
						base, first, n := last.base, last.first, last.n
						call = fmt.Sprintf("ScanChunk(%d, %d, %d)", base, first, n)
						c.ScanChunk(base, first, n, edgeSize, &tally)
						for k := 0; k < n; k++ {
							ref.access(base + uint64(first+k)*edgeSize)
						}
					case 1:
						addrs := stateStream(rng, c.numSets, span)
						call = fmt.Sprintf("grouped state phase of %d accesses", len(addrs))
						if priceGrouped(c, addrs, &sc, &tally) {
							refused++
						} else {
							accepted++
						}
						for _, a := range addrs {
							ref.access(a)
						}
					case 2:
						addr := rng.Uint64() % span
						call = fmt.Sprintf("TouchTally(%d)", addr)
						c.TouchTally(addr, &tally)
						ref.access(addr)
					case 4:
						call = "Reset()"
						c.Reset()
						clear(ref.sets)
					}
					prev = kind
					if tally.Hits != ref.hits || tally.Misses != ref.misses {
						t.Fatalf("seed %d op %d %s: tally %d hits / %d misses, reference %d / %d",
							seed, op, call, tally.Hits, tally.Misses, ref.hits, ref.misses)
					}
					for s := uint64(0); s < c.numSets; s++ {
						got, packed := c.residentLines(s)
						if want := ref.recency(s); !packed || !slices.Equal(got, want) {
							t.Fatalf("seed %d op %d %s: set %d holds %v (empty ways last: %v), reference %v",
								seed, op, call, s, got, packed, want)
						}
					}
				}
			}
			if accepted == 0 || refused == 0 {
				t.Fatalf("grouped phases: %d accepted, %d refused; both paths must run", accepted, refused)
			}
			if repeatsDirect == 0 || repeatsLater == 0 || wide == 0 {
				t.Fatalf("scans: %d repeated at once, %d repeated later, %d wider than the cache; each must run",
					repeatsDirect, repeatsLater, wide)
			}
			t.Logf("%d ScanChunk (%d wider than the cache), %d repeats (%d at once), %d state phases (%d grouped, %d refused), %d TouchTally, %d Reset",
				calls[0], wide, calls[3], repeatsDirect, calls[1], accepted, refused, calls[2], calls[4])
		})
	}
}
