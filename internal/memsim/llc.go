// Package memsim simulates the last-level cache (LLC) of the paper's testbed.
//
// The paper's evaluation measures LLC misses, LLC miss rate, misses per
// instruction (LPI), and the volume of data swapped into the LLC (Figures 3,
// 13, 14). Those were read from hardware performance counters on a Xeon with
// a 20 MB LLC. Go offers no portable, deterministic access to such counters,
// and the GC would pollute them anyway, so this package replays the engines'
// memory-access streams through a set-associative LRU cache model and counts
// the same events. The substitution preserves the comparison the paper makes:
// the same access streams that would thrash a real LLC thrash the model.
//
// The model is a product of independent per-set automata: a set's whole LRU
// state is the recency order of its resident lines, and an access only ever
// reads or writes the state of the one set its line maps to. The hot path
// exploits one consequence: accesses to different sets commute (reordering a
// stream across sets, while preserving each set's own subsequence, changes
// no per-access outcome — TouchGrouped rests on this, and the property tests
// prove it).
//
// A Cache, and the Counters it updates, have one writer at a time. The model
// takes no locks: one fixed order of accesses is what makes its counts
// reproducible, so every driver prices from one goroutine — the sharing
// controller's window pricer, the baselines' engine.Interleave — and a
// driver that hands the cache from one goroutine to another orders the
// handoff with a channel or a mutex, as each two-phase window's pricer
// starts only after the previous window's pricer has finished.
package memsim

import "fmt"

// LineSize is the simulated cache-line size in bytes.
const LineSize = 64

// MaxWays bounds the associativity so each set's tag stack can live inline
// in the set (no pointer chase on the hot path). 16 matches contemporary
// Xeon LLCs; NewCache rejects higher values.
const MaxWays = 16

// Config describes a simulated LLC.
type Config struct {
	// SizeBytes is the total cache capacity. The paper's machine has 20 MB;
	// the dataset presets pair scaled-down sizes with scaled-down graphs.
	SizeBytes int64
	// Ways is the set associativity. 16 matches contemporary Xeon LLCs.
	Ways int
}

// DefaultConfig returns a 16-way cache of the given size.
func DefaultConfig(sizeBytes int64) Config { return Config{SizeBytes: sizeBytes, Ways: 16} }

// Counters aggregates per-job access statistics.
type Counters struct {
	Hits         uint64
	Misses       uint64
	Instructions uint64
}

// LPI returns LLC misses per instruction, the metric of Figure 3(c).
func (c *Counters) LPI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Instructions)
}

// MissRate returns misses / (hits+misses), the metric of Figure 13.
func (c *Counters) MissRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Hits+c.Misses)
}

// Cache is a set-associative, LRU-replacement cache model that the jobs
// share (one writer at a time; see the package comment). Addresses are
// abstract byte addresses in a flat simulated physical space; callers
// derive them from (region base + offset).
type Cache struct {
	ways    int
	numSets uint64
	// setShift is log2(numSets): tags are line >> setShift, avoiding a
	// variable-divisor division on every access of the hot path.
	setShift uint
	sets     []cacheSet

	// hits and misses are the cache-wide totals.
	hits, misses uint64

	// last is the range of the last ScanChunk call while a repeat of it can
	// be settled without a walk (see ScanChunk); n == 0 when there is none.
	// Every other access clears it.
	last scanRange
}

// scanRange is the argument list of one ScanChunk call.
type scanRange struct {
	base, edgeSize uint64
	first, n       int
}

// cacheSet is one set's complete state, inline (no pointer chase): its
// resident tags as a recency stack, tags[0] the most recently used line and
// tags[ways-1] the least. Tag 0 marks an empty way (tags are shifted to
// avoid 0); empty ways sort to the tail, since a fill only ever pushes lines
// down. The stack order is the whole LRU state: the victim of a miss is
// always the last way. At 128B a set spans exactly two cache lines, and a
// skewed stream's probe usually resolves on the first.
type cacheSet struct {
	tags [MaxWays]uint64
}

// NewCache builds a cache from cfg. SizeBytes is rounded down to a power-of-
// two number of sets; a cache smaller than one set is rejected.
func NewCache(cfg Config) (*Cache, error) {
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("memsim: ways must be positive, got %d", cfg.Ways)
	}
	if cfg.Ways > MaxWays {
		return nil, fmt.Errorf("memsim: ways must be <= %d, got %d", MaxWays, cfg.Ways)
	}
	lines := cfg.SizeBytes / LineSize
	sets := lines / int64(cfg.Ways)
	if sets <= 0 {
		return nil, fmt.Errorf("memsim: cache of %d bytes too small for %d ways", cfg.SizeBytes, cfg.Ways)
	}
	// Round down to a power of two for cheap indexing.
	p := uint64(1)
	shift := uint(0)
	for p*2 <= uint64(sets) {
		p *= 2
		shift++
	}
	return &Cache{ways: cfg.Ways, numSets: p, setShift: shift, sets: make([]cacheSet, p)}, nil
}

// SizeBytes reports the modelled capacity.
func (c *Cache) SizeBytes() int64 {
	return int64(c.numSets) * int64(c.ways) * LineSize
}

// Tally is a local accumulator of hit/miss counts. The batched hot path
// (ScanChunk, TouchGrouped, TouchTally) tallies accesses here instead of
// bumping the counters per access, and FlushTally folds a whole chunk's
// deltas into the cache-wide totals and a job's Counters at once.
type Tally struct {
	Hits   uint64
	Misses uint64
}

// Accesses returns the number of accesses the tally has accounted.
func (t Tally) Accesses() uint64 { return t.Hits + t.Misses }

// Add accumulates other into t.
func (t *Tally) Add(other Tally) {
	t.Hits += other.Hits
	t.Misses += other.Misses
}

// touch performs one access to the line with the given tag on the set,
// returning whether it missed. The line moves to the
// top of the stack in one pass that carries each way down one as it probes:
// a hit stops at the line's old way, having shifted only the lines above
// it; a miss shifts every way and drops the last (the LRU line, or an empty
// way).
func (s *cacheSet) touch(tag uint64, ways int) bool {
	carry := tag
	for w, cur := range s.tags[:ways] {
		s.tags[w] = carry
		if cur == tag {
			return false
		}
		carry = cur
	}
	return true
}

// TouchTally simulates a load of the cache line containing addr and counts
// it into t without touching the shared counters; callers flush t with
// FlushTally. It reports whether the access missed. A sequence of TouchTally
// calls is the per-access model itself, so it prices any access stream in
// program order — the engine's fallback for a state phase GroupEntries
// refuses.
func (c *Cache) TouchTally(addr uint64, t *Tally) bool {
	c.last.n = 0
	line := addr / LineSize
	miss := c.sets[line&(c.numSets-1)].touch(line>>c.setShift+1, c.ways) // +1 so that 0 marks an empty way
	if miss {
		t.Misses++
	} else {
		t.Hits++
	}
	return miss
}

// Touch simulates a load of one cache line containing addr, updating ctr (if
// non-nil) and the cache-wide counters. It reports whether the access missed.
func (c *Cache) Touch(addr uint64, ctr *Counters) bool {
	var t Tally
	miss := c.TouchTally(addr, &t)
	c.FlushTally(t, ctr)
	return miss
}

// ScanChunk prices the stream phase of one chunk: nEdges records of
// edgeSize bytes stored contiguously from baseAddr + firstEdge*edgeSize,
// one access per record in storage order. It walks the records one 64B
// line-run at a time: a run's first access resolves hit or miss exactly as
// Touch does, and the rest are hits by construction — the line was just
// referenced and nothing intervenes. A repeat access to the line atop its
// set's stack changes nothing, so each set's LRU state afterwards is
// bit-identical to one Touch per record, and a run whose line is already
// atop the stack is a compare with no write.
//
// A call that repeats the last call's range with no other access in
// between settles in O(1): every record hits and no set changes. A scan is
// remembered only when its lines number at most numSets*ways, and any other
// access (TouchTally, Touch, TouchGrouped) or Reset forgets it.
// Consecutive lines fill consecutive sets, so no set then receives more
// than ways of them: the scan evicts none of its own lines and leaves each
// set's share of them atop its stack in scan order. Touching the same lines
// again in the same order hits every time and rebuilds exactly that order.
// This is the chunk lockstep's follower scan: every attendee that shares
// the leader's copy of a chunk rescans the range the leader just scanned.
func (c *Cache) ScanChunk(baseAddr uint64, firstEdge, nEdges int, edgeSize uint64, t *Tally) {
	if nEdges <= 0 {
		return
	}
	r := scanRange{base: baseAddr, edgeSize: edgeSize, first: firstEdge, n: nEdges}
	if c.last == r {
		t.Hits += uint64(nEdges)
		return
	}
	mask := c.numSets - 1
	// Every record is one access and only a run's first can miss, so the
	// walk counts misses alone. The end of a run is found by stepping the
	// address over the run's records, which is cheaper than dividing.
	addr := baseAddr + uint64(firstEdge)*edgeSize
	lastAddr := addr + uint64(nEdges-1)*edgeSize
	firstLine := addr / LineSize
	var misses uint64
	for {
		line := addr / LineSize
		set := &c.sets[line&mask]
		tag := line>>c.setShift + 1
		// An MRU hit is inlined to skip the call.
		if set.tags[0] != tag && set.touch(tag, c.ways) {
			misses++
		}
		next := (line + 1) * LineSize
		if next > lastAddr {
			break
		}
		for addr < next {
			addr += edgeSize
		}
	}
	t.Hits += uint64(nEdges) - misses
	t.Misses += misses
	if lastAddr/LineSize-firstLine < c.numSets*uint64(c.ways) {
		c.last = r
	} else {
		c.last.n = 0
	}
}

// BatchScratch holds the reusable buffers GroupEntries groups into. One
// scratch serves one streaming goroutine (the engine keeps one per job —
// only one chunk of a job is ever in flight); buffers grow to the high-water
// mark once and are reused, so steady-state grouping allocates nothing.
type BatchScratch struct {
	counts []uint32     // per cache set: entry count, then scatter cursor; all-zero between calls
	sets   []uint32     // distinct set indices in first-touch order
	ends   []uint32     // group end offsets, parallel to sets
	eg     []BatchEntry // entries reordered set-major
}

// BatchEntry aggregates one distinct line's accesses within a batch: how
// many raw accesses hit the line, and the batch-global position (0-based)
// of the last. A batch lists its entries in the order of their lines' first
// accesses, which is all TouchGrouped needs to know of them. A caller that
// already walks its access stream (the engine's chunk-apply does, to collect
// addresses) can dedup into entries on the fly and hand GroupEntries ~8x
// fewer elements than the raw stream — the hub-vertex skew of power-law
// graphs concentrates a chunk's state accesses onto few lines.
type BatchEntry struct {
	Line  uint64 // line number, addr / LineSize
	Count uint32 // raw accesses to the line in this batch
	Last  uint32 // batch-global position of the last access
}

// GroupedEntries is a set-major grouping of one state phase's per-line
// aggregates, built by GroupEntries and settled by TouchGrouped. The grouping
// is a pure function of the entry list, so a chunk that is re-applied with
// the same aggregates (full-active programs re-visiting an immutable chunk)
// can keep a copy and skip the counting sort on every later visit.
type GroupedEntries struct {
	Sets []uint32     // distinct set indices, in group order
	Ends []uint32     // Eg[Ends[i-1]:Ends[i]] is set Sets[i]'s group (Ends[-1] = 0)
	Eg   []BatchEntry // entries scattered set-major, append order within a set
}

// GroupEntries groups a state phase's per-line aggregates set-major for
// TouchGrouped: sets in first-touch order, each set's entries in list order.
// The result is a view into sc, valid until the next call on sc; a caller
// that keeps it copies it. GroupEntries reports ok=false when any set's
// distinct lines exceed the cache's ways — the aggregates cannot settle such
// a phase exactly (see TouchGrouped) and the caller prices the raw access
// stream in order with TouchTally instead. Grouping touches no cache state,
// so a refusal leaves the cache exactly as it was.
func (c *Cache) GroupEntries(entries []BatchEntry, sc *BatchScratch) (GroupedEntries, bool) {
	if len(entries) == 0 {
		return GroupedEntries{}, true
	}
	mask := c.numSets - 1
	if uint64(len(sc.counts)) < c.numSets {
		sc.counts = make([]uint32, c.numSets)
	}
	counts := sc.counts
	sets := sc.sets[:0]
	overflow := false
	for i := range entries {
		s := uint32(entries[i].Line & mask)
		if counts[s] == 0 {
			sets = append(sets, s)
		}
		counts[s]++
		if counts[s] > uint32(c.ways) {
			overflow = true
		}
	}
	sc.sets = sets
	if overflow {
		for _, s := range sets {
			counts[s] = 0
		}
		return GroupedEntries{}, false
	}
	if cap(sc.ends) < len(sets) {
		sc.ends = make([]uint32, len(sets))
	}
	if cap(sc.eg) < len(entries) {
		sc.eg = make([]BatchEntry, len(entries))
	}
	g := GroupedEntries{Sets: sets, Ends: sc.ends[:len(sets)], Eg: sc.eg[:len(entries)]}
	// Prefix sums over the touched sets turn counts into scatter cursors;
	// groups are laid out contiguously in first-touch order.
	off := uint32(0)
	for i, s := range sets {
		n := counts[s]
		counts[s] = off
		off += n
		g.Ends[i] = off
	}
	for _, e := range entries {
		s := uint32(e.Line & mask)
		g.Eg[counts[s]] = e
		counts[s]++
	}
	for _, s := range sets {
		counts[s] = 0 // restore the all-zero invariant for the next call
	}
	return g, true
}

// TouchGrouped settles a state phase from its grouped per-line aggregates:
// one simulated access per distinct line. It is observably identical to touching the raw access stream the
// entries summarize one access at a time, in program order. Each set's
// automaton consumes only its own subsequence of the stream, so sets may be
// settled in any order. Within a set-group, the lines the group has already
// touched head the stack, above every line resident before the group. While
// the group's distinct lines fit the ways (GroupEntries refuses exactly the
// groups where they do not), fewer than ways group lines sit above the last
// way whenever a new line misses, so the victim is always a pre-group line
// or an empty way: no group line is evicted within the group, every repeat
// is a guaranteed hit, and only each line's first access needs simulating,
// in first-access order (the entries' order). Those touches leave the
// group's k lines in tags[0:k], above the surviving pre-group lines in
// their old order — the order the per-access model leaves too, except that
// it ranks the group's lines by their last access. Rewriting tags[0:k] in
// descending Last order closes that gap.
func (c *Cache) TouchGrouped(g *GroupedEntries, t *Tally) {
	c.last.n = 0
	var hits, misses uint64
	var lasts [MaxWays]uint32
	start := uint32(0)
	for i, si := range g.Sets {
		end := g.Ends[i]
		grp := g.Eg[start:end]
		set := &c.sets[si]
		for _, e := range grp {
			hits += uint64(e.Count)
			if set.touch(e.Line>>c.setShift+1, c.ways) {
				misses++
				hits-- // the line's first access
			}
		}
		// Insertion sort of the group's lines into tags[0:k] by descending
		// Last; positions are distinct, so the order is total.
		for k, e := range grp {
			p := k
			for ; p > 0 && lasts[p-1] < e.Last; p-- {
				set.tags[p], lasts[p] = set.tags[p-1], lasts[p-1]
			}
			set.tags[p], lasts[p] = e.Line>>c.setShift+1, e.Last
		}
		start = end
	}
	t.Hits += hits
	t.Misses += misses
}

// FlushTally folds a batch of tallied accesses into the cache-wide totals
// and into ctr (if non-nil). The hot path calls it once per priced chunk;
// Touch calls it once per access.
func (c *Cache) FlushTally(t Tally, ctr *Counters) {
	c.hits += t.Hits
	c.misses += t.Misses
	if ctr != nil {
		ctr.Hits += t.Hits
		ctr.Misses += t.Misses
		ctr.Instructions += t.Hits + t.Misses
	}
}

// TotalMisses returns the cache-wide miss count. Multiplying by LineSize
// gives the volume of data swapped into the LLC (Figure 14).
func (c *Cache) TotalMisses() uint64 { return c.misses }

// TotalHits returns the cache-wide hit count.
func (c *Cache) TotalHits() uint64 { return c.hits }

// SwappedBytes returns the total bytes loaded into the cache.
func (c *Cache) SwappedBytes() uint64 { return c.TotalMisses() * LineSize }

// MissRate returns the cache-wide miss rate.
func (c *Cache) MissRate() float64 {
	h, m := c.TotalHits(), c.TotalMisses()
	if h+m == 0 {
		return 0
	}
	return float64(m) / float64(h+m)
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	clear(c.sets)
	c.last = scanRange{}
	c.hits, c.misses = 0, 0
}
