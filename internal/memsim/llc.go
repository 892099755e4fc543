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
// reads or writes the state of the one set its line maps to (one spinlock
// covers 16 consecutive sets). Two consequences the hot path exploits:
// accesses to different sets commute (reordering a stream across sets, while
// preserving each set's own subsequence, changes no per-access outcome —
// TouchGrouped rests on this, and the property tests prove it), and there is
// no cache-global state to contend on per access — the cache-wide hit/miss
// totals are sharded (per set for Touch, per flushed tally for the batched
// path) and only summed when read.
package memsim

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

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
	Hits         atomic.Uint64
	Misses       atomic.Uint64
	Instructions atomic.Uint64
}

// LPI returns LLC misses per instruction, the metric of Figure 3(c).
func (c *Counters) LPI() float64 {
	ins := c.Instructions.Load()
	if ins == 0 {
		return 0
	}
	return float64(c.Misses.Load()) / float64(ins)
}

// MissRate returns misses / (hits+misses), the metric of Figure 13.
func (c *Counters) MissRate() float64 {
	h, m := c.Hits.Load(), c.Misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(m) / float64(h+m)
}

// tallyShards is the number of shards the cache-wide hit/miss totals are
// split across. Shard selection only balances load (Touch uses the set
// index, FlushTally a caller-supplied slot); the sum over shards is the
// total either way.
const tallyShards = 64

// tallyShard is one padded slot of the sharded cache-wide totals. The
// padding keeps two shards off one hardware cache line, so concurrent
// workers flushing different shards never false-share.
type tallyShard struct {
	hits   atomic.Uint64
	misses atomic.Uint64
	_      [48]byte
}

// Cache is a shared, set-associative, LRU-replacement cache model. Addresses
// are abstract byte addresses in a flat simulated physical space; callers
// derive them from (region base + offset). Cache is safe for concurrent use:
// one spinlock covers each run of 16 consecutive sets, so parallel jobs
// contend on the sets they share.
type Cache struct {
	ways    int
	numSets uint64
	// setShift is log2(numSets): tags are line >> setShift, avoiding a
	// variable-divisor division on every access of the hot path.
	setShift uint
	sets     []cacheSet

	// locks spinlock-protects the sets, one lock per lockSpan consecutive
	// sets. Coarser-than-set locking costs nothing in correctness (a lock
	// still serializes every access to the sets it covers) and lets the
	// sequential scan of a chunk's edge lines — consecutive lines, hence
	// consecutive sets — amortize one atomic acquire over up to lockSpan
	// line touches instead of paying a CAS per line.
	locks []lockShard

	// shards holds the cache-wide hit/miss totals, sharded so no two
	// concurrent streamers contend on a single atomic word. TotalHits and
	// TotalMisses sum them on read.
	shards [tallyShards]tallyShard
}

// lockSpanShift gives lockSpan = 16 sets per lock shard: small enough that
// concurrent streamers over different regions rarely collide, large enough
// that a sequential line scan acquires ~1/16th the locks.
const lockSpanShift = 4

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

// lockShard is one padded spinlock covering lockSpan consecutive sets.
type lockShard struct {
	lock atomic.Uint32
	_    [60]byte
}

// lockOf returns the lock shard guarding setIdx.
func (c *Cache) lockOf(setIdx uint64) *lockShard { return &c.locks[setIdx>>lockSpanShift] }

// acquire takes the shard's spinlock. The critical section is a handful of
// nanoseconds (a few tag scans) and never blocks, so spinning beats parking;
// the occasional Gosched keeps a constrained GOMAXPROCS from livelocking.
func (l *lockShard) acquire() {
	for !l.lock.CompareAndSwap(0, 1) {
		spins := 0
		for l.lock.Load() != 0 {
			spins++
			if spins >= 64 {
				runtime.Gosched()
				spins = 0
			}
		}
	}
}

func (l *lockShard) release() { l.lock.Store(0) }

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
	nLocks := (p + (1 << lockSpanShift) - 1) >> lockSpanShift
	if nLocks == 0 {
		nLocks = 1
	}
	return &Cache{ways: cfg.Ways, numSets: p, setShift: shift,
		sets: make([]cacheSet, p), locks: make([]lockShard, nLocks)}, nil
}

// SizeBytes reports the modelled capacity.
func (c *Cache) SizeBytes() int64 {
	return int64(c.numSets) * int64(c.ways) * LineSize
}

// Tally is a local, unsynchronized accumulator of hit/miss counts. The
// batched hot path (ScanChunk, TouchGrouped, TouchTally) tallies accesses
// here instead of bumping the shared counters per access, and FlushTally
// folds a whole chunk's deltas into the cache-wide totals and a job's
// Counters with one atomic add per counter. A Tally must not be shared
// between goroutines without external synchronization.
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

// touchLocked performs one access to the line with the given tag on a set
// whose lock is held, returning whether it missed. The line moves to the
// top of the stack in one pass that carries each way down one as it probes:
// a hit stops at the line's old way, having shifted only the lines above
// it; a miss shifts every way and drops the last (the LRU line, or an empty
// way).
func (s *cacheSet) touchLocked(tag uint64, ways int) bool {
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
	line := addr / LineSize
	setIdx := line & (c.numSets - 1)
	l := c.lockOf(setIdx)
	l.acquire()
	miss := c.sets[setIdx].touchLocked(line>>c.setShift+1, c.ways) // +1 so that 0 marks an empty way
	l.release()
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
	c.FlushTally(t, ctr, int(addr/LineSize))
	return miss
}

// ScanChunk prices the stream phase of one chunk: nEdges records of
// edgeSize bytes stored contiguously from baseAddr + firstEdge*edgeSize,
// one access per record in storage order. It walks the records one 64B
// line-run at a time: a run's first access resolves hit or miss exactly as
// Touch does, and the rest are hits by construction — the line was just
// referenced and nothing intervenes while its set is locked. A repeat
// access to the line atop its set's stack changes nothing, so each set's
// LRU state afterwards is bit-identical to one Touch per record, and a run
// whose line is already atop the stack is a compare with no write.
// Consecutive lines (hence consecutive sets) sharing a lock shard are
// priced under one acquisition instead of one per line.
func (c *Cache) ScanChunk(baseAddr uint64, firstEdge, nEdges int, edgeSize uint64, t *Tally) {
	if nEdges <= 0 {
		return
	}
	mask := c.numSets - 1
	var hits, misses uint64
	var cur *lockShard
	for i := 0; i < nEdges; {
		addr := baseAddr + uint64(firstEdge+i)*edgeSize
		line := addr / LineSize
		run := i + int(((line+1)*LineSize-addr+edgeSize-1)/edgeSize)
		if run > nEdges {
			run = nEdges
		}
		setIdx := line & mask
		if sh := c.lockOf(setIdx); sh != cur {
			if cur != nil {
				cur.release()
			}
			cur = sh
			cur.acquire()
		}
		set := &c.sets[setIdx]
		tag := line>>c.setShift + 1
		// An MRU hit is inlined to skip the call.
		hits += uint64(run - i)
		if set.tags[0] != tag && set.touchLocked(tag, c.ways) {
			misses++
			hits-- // the run's first access
		}
		i = run
	}
	if cur != nil {
		cur.release()
	}
	t.Hits += hits
	t.Misses += misses
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
// one lock acquisition per set-group, one simulated access per distinct
// line. It is observably identical to touching the raw access stream the
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
	var hits, misses uint64
	var lasts [MaxWays]uint32
	start := uint32(0)
	for i, si := range g.Sets {
		end := g.Ends[i]
		grp := g.Eg[start:end]
		set := &c.sets[si]
		l := c.lockOf(uint64(si))
		l.acquire()
		for _, e := range grp {
			hits += uint64(e.Count)
			if set.touchLocked(e.Line>>c.setShift+1, c.ways) {
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
		l.release()
		start = end
	}
	t.Hits += hits
	t.Misses += misses
}

// FlushTally folds a batch of tallied accesses into the cache-wide totals
// and into ctr (if non-nil), with one atomic add per counter. The hot path
// calls it once per applied chunk; Touch calls it once per access. shard
// picks the slot of the sharded cache-wide totals (callers pass a stable
// per-job or per-worker value, e.g. the job ID); it only spreads contention
// — any shard sums into the same totals.
func (c *Cache) FlushTally(t Tally, ctr *Counters, shard int) {
	sh := &c.shards[uint64(shard)&(tallyShards-1)]
	if t.Hits != 0 {
		sh.hits.Add(t.Hits)
	}
	if t.Misses != 0 {
		sh.misses.Add(t.Misses)
	}
	if ctr == nil {
		return
	}
	if t.Hits != 0 {
		ctr.Hits.Add(t.Hits)
	}
	if t.Misses != 0 {
		ctr.Misses.Add(t.Misses)
	}
	if n := t.Hits + t.Misses; n != 0 {
		ctr.Instructions.Add(n)
	}
}

// TotalMisses returns the cache-wide miss count, summed over the tally
// shards. Multiplying by LineSize gives the volume of data swapped into the
// LLC (Figure 14).
func (c *Cache) TotalMisses() uint64 {
	var n uint64
	for i := range c.shards {
		n += c.shards[i].misses.Load()
	}
	return n
}

// TotalHits returns the cache-wide hit count, summed over the tally shards.
func (c *Cache) TotalHits() uint64 {
	var n uint64
	for i := range c.shards {
		n += c.shards[i].hits.Load()
	}
	return n
}

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

// Reset clears contents and counters. Not safe concurrently with Touch.
func (c *Cache) Reset() {
	clear(c.sets)
	for i := range c.shards {
		c.shards[i].hits.Store(0)
		c.shards[i].misses.Store(0)
	}
}
