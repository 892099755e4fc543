package engine

import (
	"math/rand"
	"slices"
	"sync"
	"time"

	"graphm/internal/graph"
	"graphm/internal/memsim"
)

// CostModel converts counted work into simulated time. Wall-clock time of
// the Go process is not meaningful for the paper's tables (the real testbed
// is a dual Xeon streaming from a hard drive), so engines count events and
// this model prices them. The constants are calibrated so the relative
// shapes — data access dominating compute, disk ≫ memory ≫ LLC — match the
// paper's breakdown in Figure 10.
type CostModel struct {
	ScanNS        float64 // T(E): streaming one edge past a job
	WorkNS        float64 // T(F) unit: processing one edge at EdgeCost 1.0
	LLCHitNS      float64 // memory-level cost of an LLC hit
	LLCMissNS     float64 // memory-level cost of an LLC miss
	DiskBytesPerS float64 // sequential disk bandwidth
}

// DefaultCostModel mirrors the paper's testbed ratios: ~100 MB/s HDD,
// ~1 ns LLC hit, ~60 ns DRAM access on miss, few-ns edge functions.
func DefaultCostModel() CostModel {
	return CostModel{
		ScanNS:        1.0,
		WorkNS:        3.0,
		LLCHitNS:      1.0,
		LLCMissNS:     60.0,
		DiskBytesPerS: 100e6,
	}
}

// DiskNS prices a disk transfer of n bytes.
func (c CostModel) DiskNS(n uint64) uint64 {
	return uint64(float64(n) / c.DiskBytesPerS * 1e9)
}

// Job binds one algorithm instance (a Program) to its runtime identity:
// per-job LLC counters, work metrics, the simulated address of its
// job-specific data, and its private RNG for parameter draws.
type Job struct {
	ID   int
	Prog Program
	Ctr  memsim.Counters
	// Met aggregates the job's work counters. Concurrent writers must go
	// through AddMetrics (ApplyChunk does); reading the struct directly is
	// only safe once the job is quiescent (Done, or between rounds).
	Met Metrics
	// metMu guards Met against concurrent AddMetrics calls — a two-phase
	// pricer bills a job's chunks from its own goroutine while the sharing
	// controller bills amortized I/O shares from another.
	metMu sync.Mutex

	// StateBase is the simulated base address of the job-specific data S;
	// distinct per job, so jobs never share S lines in the LLC (only G).
	StateBase uint64
	// VertexPay is U_v: bytes of job-specific data per vertex.
	VertexPay uint64

	// SubmitAt is the job's arrival time in the workload timeline, used by
	// the Poisson/trace submission modes.
	SubmitAt time.Duration

	// Iter is the job's current iteration, maintained by the engine driver.
	Iter int
	// Done marks completion.
	Done bool

	// arena is the job's reusable chunk-apply scratch (the state-access
	// aggregates of the chunk being collected, the set-grouping buffers and
	// the per-chunk records awaiting pricing). A job has at most one
	// collector and one pricer at a time, and they share only the records,
	// whose fields they split (see chunkRecord), so the arena is
	// uncontended; it grows to the high-water mark once and
	// steady-state chunk application allocates nothing (the zero-alloc gate
	// in zeroalloc_test asserts it). It lives until ReleaseArena, which
	// core.Session.Close calls.
	arena chunkArena

	rng *rand.Rand
}

// chunkArena holds per-job scratch reused across chunk applications.
type chunkArena struct {
	scratch memsim.BatchScratch

	// Per-line dedup table for the batch path: the chunk's state accesses
	// are aggregated into one memsim.BatchEntry per distinct line as they
	// are collected, so the pricing pass scales with distinct lines (~8x
	// fewer on hub-skewed graphs) instead of raw accesses. lineStamp is
	// indexed by state line relative to StateBase and packs the chunk
	// epoch (high 32 bits, so stale chunks need no clearing) with the
	// line's entry slot (low 32) — one random load per access.
	entries   []memsim.BatchEntry
	lineStamp []uint64
	epoch     uint32

	// gated holds the chunk's active-source edges when a batch program runs
	// under a partial frontier, so ProcessEdges skips the second per-edge
	// frontier probe over the whole chunk.
	gated []graph.Edge

	// memo caches the set-grouped per-line aggregates of full-active batch
	// programs, keyed by chunk identity. Chunk edge slices are never
	// mutated in place (base partitions and snapshot copies are
	// copy-on-write), so when every vertex is active both the aggregates
	// and their set grouping are pure functions of the chunk's edges, the
	// job's StateBase/VertexPay and the cache geometry — and jobs re-apply
	// the same chunks every iteration, whichever buffer address an
	// out-of-core reload gives them. memoFor records the state layout and
	// cache the entries were derived under; a change clears the memo.
	// Bounded so a week-long replay over a huge grid cannot hoard memory.
	memo    map[chunkKey]memsim.GroupedEntries
	memoFor memoScope
	// memoHits counts applications served from the memo.
	memoHits uint64

	// recs holds one record per collected-but-unpriced chunk, indexed by
	// the slot the driver collected it into. Records are reused across
	// chunks, and PriceChunk drops every reference into the chunk (edges,
	// frontier, memo entry), so a priced record pins no chunk version.
	recs []chunkRecord
	// held stores the non-memoized groupings of the chunks collected since
	// slot 0 was last collected, back to back; each record keeps a view of
	// its own. Growing the buffer leaves earlier views on the old array,
	// whose elements no later collection writes. One buffer per job keeps
	// the retained memory at the largest run of slots the job's driver
	// collects before pricing them, rather than at the sum of every slot's
	// largest chunk.
	held memsim.GroupedEntries
}

// chunkRecord is one chunk's compute outcome, held between OpenChunk and
// PriceChunk: what the pricing tail needs to replay the chunk's canonical
// LLC access sequence. OpenChunk writes the chunk, its frontier and the
// model; CollectChunk then writes the compute's outcome (st beyond Scanned,
// grouped, g) and PriceStream writes streamed and tally, so the two may run
// on one slot at once. PriceChunk runs once both are done.
type chunkRecord struct {
	edges     []graph.Edge // the chunk as the job observed it; nil once priced
	active    *Bitmap      // the frontier the chunk was collected under
	baseAddr  uint64
	first     int
	allActive bool
	// perEdge marks a record opened for the per-edge reference model.
	perEdge bool
	// grouped says the state phase has a set-major grouping; false sends
	// pricing down the in-order fallback.
	grouped bool
	st      StreamStats // Scanned, Processed, Activated of the compute
	// g is the grouping to settle: a memo entry, a view into the arena's
	// held buffer, or the scratch view of a chunk priced by the call that
	// collected it.
	g memsim.GroupedEntries
	// streamed says PriceStream has priced the stream phase into tally.
	streamed bool
	tally    memsim.Tally
}

// chunkKey identifies a chunk by its edge slice: the address of its first
// edge and its length. The pointer keeps the backing array reachable while
// the key is live, so a freed array can never be reused under a live key.
type chunkKey struct {
	first *graph.Edge
	n     int
}

// keyOf returns the memo key of a chunk's edge slice. Empty chunks share
// one key; their grouped entries are empty.
func keyOf(edges []graph.Edge) chunkKey {
	if len(edges) == 0 {
		return chunkKey{}
	}
	return chunkKey{&edges[0], len(edges)}
}

// memoScope is what a memoized grouping depends on besides the chunk.
type memoScope struct {
	stateBase, vpay uint64
	cache           *memsim.Cache
}

// memoCap bounds a job's per-chunk memo (at ~2KB per typical chunk this is
// a few MB per job).
const memoCap = 2048

// allActiveBitmap is the shared zero-length bitmap handed to ProcessEdges
// with a pre-gated edge slice: Full() on an empty bitmap is vacuously true,
// so batch programs skip their per-edge frontier probe. Never mutated.
var allActiveBitmap = NewBitmap(0)

// NewJob creates a job with a deterministic RNG derived from seed.
func NewJob(id int, prog Program, seed int64) *Job {
	return &Job{ID: id, Prog: prog, VertexPay: 8, rng: rand.New(rand.NewSource(seed))}
}

// Bind resets the program against g using the job's RNG and records the
// job-specific data footprint.
func (j *Job) Bind(g *graph.Graph) {
	j.Prog.Reset(g, j.rng)
}

// StreamStats reports the outcome of streaming a run of edges for one job.
type StreamStats struct {
	Scanned   uint64
	Processed uint64
	Activated uint64
	// SimNS is the chunk's simulated memory plus compute time, the T_ij the
	// synchronization manager's profiling phase fits Formula (2) to.
	SimNS uint64
}

// AddMetrics accumulates delta into the job's metrics under the job's
// metric lock. All metric writers on a potentially concurrent path
// (chunk pricing, the sharing controller's I/O billing) use it so the
// counters stay exact whichever goroutine applies a chunk.
func (j *Job) AddMetrics(delta Metrics) {
	j.metMu.Lock()
	j.Met.Add(delta)
	j.metMu.Unlock()
}

// ApplyChunk is the job's chunk-apply entry: it streams one chunk's edges
// (edges[0] is record first of the buffer at baseAddr) through the program
// with full LLC instrumentation and metric accounting, and returns per-call
// stats for the synchronization manager's profiler. It is OpenChunk,
// CollectChunk and PriceChunk on slot 0, except that the grouping is priced straight from
// the collection scratch instead of being copied — the form every driver
// that prices a chunk the moment it computes it uses (the baseline
// engines). Met is synchronized (see AddMetrics); Ctr and the cache have one
// writer at a time (see memsim), and vertex-state safety is the caller's
// contract — drivers serialize a job's compute (only ever one CollectChunk
// in flight per job), because ProcessEdge mutates per-vertex
// state that disjoint chunks may share through common destinations.
//
// The simulated access order is canonical across both accounting models, in
// two phases per chunk. Stream phase: every edge record is scanned in
// storage order, one access per edge. State phase: each active-source edge,
// in edge order, accesses its two endpoints' state. Formula (1) sizes a
// chunk so its edges plus the attending jobs' vertex state fit in the LLC
// together, so settling the chunk's state lines at a chunk-end barrier
// instead of interleaved mid-scan is the same residency story the chunking
// design already asserts — and it is what lets the hot path batch the state
// accesses set-major.
//
// ApplyChunk is the batched hot path. The compute runs first (CollectChunk):
// programs implementing BatchProgram are processed in one call (skipping
// the per-edge interface dispatch), the chunk's state accesses are folded
// into per-line aggregates as they are collected, and
// memsim.Cache.GroupEntries groups them set-major. Then one tail prices the
// chunk (PriceChunk): memsim.Cache.ScanChunk for the stream phase, and for
// the state phase TouchGrouped — one simulated access per distinct line,
// provably bit-identical to in-order application — or, when a set's
// distinct lines outnumber the ways, the raw stream in order through
// TouchTally. Hits, misses and processed counts are tallied as integers and
// flushed to the job's Counters and the cache-wide totals once at chunk
// end. The collection buffers live in the job's arena, so steady-state
// chunk application performs zero heap allocations. A record opened with
// perEdge set is the reference model for the same canonical sequence; the
// two produce identical counters — the scenario harness's sim-equality
// invariant proves it.
func (j *Job) ApplyChunk(edges []graph.Edge, baseAddr uint64, first int, cache *memsim.Cache, cm CostModel) StreamStats {
	j.OpenChunk(0, edges, baseAddr, first, false)
	j.collect(0, cache, false)
	return j.PriceChunk(0, cache, cm)
}

// OpenChunk starts a collection into the arena's record slot: it records
// the chunk (edges[0] is record first of the buffer at baseAddr), the
// job's current frontier and its fullness, and whether the chunk is priced
// by the per-edge reference model (one Cache.Touch per access) or by the
// batched hot path. That is all PriceStream reads, so once a slot is open
// a driver may price its stream phase from another goroutine while
// CollectChunk runs the compute. Opening slot 0 starts a new run of slots:
// every record collected before must have been priced.
func (j *Job) OpenChunk(slot int, edges []graph.Edge, baseAddr uint64, first int, perEdge bool) {
	j.ReserveSlots(slot + 1)
	if slot == 0 {
		h := &j.arena.held
		h.Sets, h.Ends, h.Eg = h.Sets[:0], h.Ends[:0], h.Eg[:0]
	}
	active := j.Prog.Active()
	j.arena.recs[slot] = chunkRecord{edges: edges, active: active, baseAddr: baseAddr, first: first,
		allActive: active.Full(), perEdge: perEdge, st: StreamStats{Scanned: uint64(len(edges))}}
}

// CollectChunk is the job-private half of ApplyChunk: it runs the compute
// of the chunk OpenChunk opened in slot and records what PriceChunk needs
// to price it. It touches no cache state (GroupEntries only reads the
// cache's geometry), so the collections of different jobs may run in
// parallel, and one job may collect a run of chunks into consecutive slots
// before any of it is priced: the frontier a record keeps is the
// iteration's, which no ProcessEdge call mutates. Pricing a job's records
// in slot order after collecting them yields exactly the tallies,
// StreamStats, Metrics and program state of ApplyChunk on each chunk in
// turn. Once ReserveSlots has covered the run, a driver may price a slot
// from another goroutine while the job collects later ones.
func (j *Job) CollectChunk(slot int, cache *memsim.Cache) {
	if j.arena.recs[slot].perEdge {
		j.collectPerEdge(slot)
		return
	}
	j.collect(slot, cache, true)
}

// collect is CollectChunk on the batched path; keep says whether a
// non-memoized grouping must outlive the next collection (copied into the
// held buffer) or is priced before it (left as a view into the scratch).
func (j *Job) collect(slot int, cache *memsim.Cache, keep bool) {
	r := &j.arena.recs[slot]
	edges, active, allActive := r.edges, r.active, r.allActive
	bp, _ := j.Prog.(BatchProgram)
	// Memoized fast path: a full-active batch program touches every edge, so
	// its per-line aggregates depend only on the chunk itself — and drivers
	// re-apply the same chunks every iteration. After the first visit the
	// collection loop and the grouping disappear; the compute runs once
	// through ProcessEdges. Every access position a cached entry carries is
	// the same batch-global position the loop would have assigned, so the
	// pricing is bit-identical to a fresh collection.
	memoize := bp != nil && allActive
	if memoize {
		if scope := (memoScope{j.StateBase, j.VertexPay, cache}); j.arena.memo == nil || j.arena.memoFor != scope {
			j.arena.memo = make(map[chunkKey]memsim.GroupedEntries)
			j.arena.memoFor = scope
		}
		r.g, r.grouped = j.arena.memo[keyOf(edges)]
	}
	if r.grouped {
		j.arena.memoHits++
		r.st.Processed, r.st.Activated = bp.ProcessEdges(edges, active)
		return
	}
	j.collectChunk(edges, active, allActive, bp, &r.st)
	g, grouped := cache.GroupEntries(j.arena.entries, &j.arena.scratch)
	if !grouped {
		// A refused grouping is never kept — the in-order fallback re-walks
		// the raw stream on every visit anyway.
		return
	}
	// The grouping is a view into the arena's scratch, which the job's next
	// collection overwrites: keep it in the memo or in the held buffer when
	// it must outlive that.
	r.grouped = true
	switch {
	case memoize && len(j.arena.memo) < memoCap:
		r.g = memsim.GroupedEntries{Sets: slices.Clone(g.Sets), Ends: slices.Clone(g.Ends), Eg: slices.Clone(g.Eg)}
		j.arena.memo[keyOf(edges)] = r.g
	case keep:
		h := &j.arena.held
		s, e := len(h.Sets), len(h.Eg)
		h.Sets = append(h.Sets, g.Sets...)
		h.Ends = append(h.Ends, g.Ends...)
		h.Eg = append(h.Eg, g.Eg...)
		r.g = memsim.GroupedEntries{Sets: h.Sets[s:len(h.Sets):len(h.Sets)],
			Ends: h.Ends[s:len(h.Ends):len(h.Ends)], Eg: h.Eg[e:len(h.Eg):len(h.Eg)]}
	default:
		r.g = g
	}
}

// collectPerEdge is CollectChunk for the per-edge reference model: it runs
// the compute through ProcessEdge one active-source edge at a time, and
// PriceChunk prices the record one Cache.Touch per access.
func (j *Job) collectPerEdge(slot int) {
	r := &j.arena.recs[slot]
	// ProcessEdge touches no simulated line, so running the compute ahead of
	// the pricing leaves the access sequence unchanged.
	for _, e := range r.edges {
		if !r.active.Has(int(e.Src)) {
			continue
		}
		if j.Prog.ProcessEdge(e) {
			r.st.Activated++
		}
		r.st.Processed++
	}
}

// PriceStream prices the stream phase of the chunk opened in slot: one
// access per edge record, in storage order. It is optional — PriceChunk
// runs it when it has not run — and lets a driver that prices several jobs'
// copies of one chunk scan the chunk for all of them before any of their
// state phases, as the lockstep's leader pulls the chunk into the LLC for
// its followers. It reads only what OpenChunk recorded, so it may run while
// CollectChunk computes the slot.
func (j *Job) PriceStream(slot int, cache *memsim.Cache) {
	r := &j.arena.recs[slot]
	if r.perEdge {
		for k := range r.edges {
			j.touch(cache, r.baseAddr+uint64(r.first+k)*graph.EdgeSize, &r.tally)
		}
	} else {
		cache.ScanChunk(r.baseAddr, r.first, len(r.edges), graph.EdgeSize, &r.tally)
	}
	r.streamed = true
}

// PriceChunk is the pricing half of ApplyChunk: it replays the canonical
// LLC access sequence of the chunk collected into slot against cache (the
// stream phase unless PriceStream already priced it, then the state
// phase), commits the chunk's metrics and returns its stats. It runs no
// program code, so a driver may price a job's collected chunks from any
// goroutine while the job's own goroutine is parked, and, within a run of
// slots ReserveSlots covered, while later slots are being collected.
// Afterwards the record keeps no reference into the chunk.
func (j *Job) PriceChunk(slot int, cache *memsim.Cache, cm CostModel) StreamStats {
	r := &j.arena.recs[slot]
	if !r.streamed {
		j.PriceStream(slot, cache)
	}
	st, tally := r.st, &r.tally
	switch {
	case r.perEdge:
		for _, e := range r.edges {
			if r.active.Has(int(e.Src)) {
				j.touch(cache, j.StateBase+uint64(e.Src)*j.VertexPay, tally)
				j.touch(cache, j.StateBase+uint64(e.Dst)*j.VertexPay, tally)
			}
		}
	case r.grouped:
		cache.TouchGrouped(&r.g, tally)
	default:
		j.touchStateInOrder(r.edges, r.active, r.allActive, cache, tally)
	}
	if !r.perEdge {
		cache.FlushTally(*tally, &j.Ctr)
	}
	j.priceChunk(&st, *tally, cm)
	r.edges, r.active, r.g = nil, nil, memsim.GroupedEntries{}
	return st
}

// ReserveSlots grows the arena's record list to at least n slots, so that
// collecting slots below n never moves the records: a driver can then
// price slot i on one goroutine while another collects slot i+1.
func (j *Job) ReserveSlots(n int) {
	if n > len(j.arena.recs) {
		j.arena.recs = append(j.arena.recs, make([]chunkRecord, n-len(j.arena.recs))...)
	}
}

// collectChunk runs the chunk's compute and folds its state accesses into
// per-line aggregates in the arena's entries.
func (j *Job) collectChunk(edges []graph.Edge, active *Bitmap, allActive bool, bp BatchProgram, st *StreamStats) {
	n := len(edges)
	stateBase, vpay := j.StateBase, j.VertexPay
	// Size the per-line dedup table to the job's state extent (one slot per
	// 64B state line) and open a fresh epoch for this chunk. Stale stamps
	// from earlier chunks are simply non-matching — no clearing needed —
	// except on the (4-billion-chunk) epoch wraparound.
	lineBase := stateBase / memsim.LineSize
	// (stateBase + x)/LineSize - lineBase == (rem + x)/LineSize for any x,
	// so the per-endpoint line index needs only the hoisted remainder.
	rem := stateBase & (memsim.LineSize - 1)
	needLines := (uint64(active.Len())*vpay)/memsim.LineSize + 2
	if uint64(len(j.arena.lineStamp)) < needLines {
		j.arena.lineStamp = make([]uint64, needLines)
		j.arena.epoch = 0
	}
	j.arena.epoch++
	if j.arena.epoch == 0 {
		clear(j.arena.lineStamp)
		j.arena.epoch = 1
	}
	epoch, stamp := uint64(j.arena.epoch)<<32, j.arena.lineStamp
	entries := j.arena.entries[:0]
	pos := uint32(0)
	// For a gated batch program the collection loop already pays one Has
	// probe per edge; gathering the survivors lets ProcessEdges run on the
	// pre-gated slice (flagged all-active via a zero-length bitmap, which is
	// vacuously full) instead of re-probing the frontier over the whole
	// chunk. Same edges in the same order — observably identical.
	gatherGated := bp != nil && !allActive
	var gated []graph.Edge
	if gatherGated {
		if cap(j.arena.gated) < n {
			j.arena.gated = make([]graph.Edge, 0, n)
		}
		gated = j.arena.gated[:0]
	}
	for k := 0; k < n; k++ {
		e := edges[k]
		if !allActive && !active.Has(int(e.Src)) {
			continue
		}
		// Job-specific data accesses for the two endpoints, settled in the
		// chunk's state phase: aggregate per distinct line.
		li := (rem + uint64(e.Src)*vpay) / memsim.LineSize
		if st := stamp[li]; st&^0xffffffff == epoch {
			en := &entries[uint32(st)]
			en.Count++
			en.Last = pos
		} else {
			stamp[li] = epoch | uint64(len(entries))
			entries = append(entries, memsim.BatchEntry{Line: lineBase + li, Count: 1, Last: pos})
		}
		pos++
		li = (rem + uint64(e.Dst)*vpay) / memsim.LineSize
		if st := stamp[li]; st&^0xffffffff == epoch {
			en := &entries[uint32(st)]
			en.Count++
			en.Last = pos
		} else {
			stamp[li] = epoch | uint64(len(entries))
			entries = append(entries, memsim.BatchEntry{Line: lineBase + li, Count: 1, Last: pos})
		}
		pos++
		if gatherGated {
			gated = append(gated, e)
		} else if bp == nil {
			if j.Prog.ProcessEdge(e) {
				st.Activated++
			}
			st.Processed++
		}
	}
	if bp != nil {
		var p, a uint64
		if gatherGated {
			j.arena.gated = gated
			p, a = bp.ProcessEdges(gated, allActiveBitmap)
		} else {
			p, a = bp.ProcessEdges(edges, active)
		}
		st.Processed += p
		st.Activated += a
	}
	j.arena.entries = entries
}

// ReleaseArena drops the job's chunk-apply scratch — collection buffers,
// chunk records and the per-chunk memo, with any chunk versions the memo's
// keys keep reachable. The next CollectChunk regrows it. The caller must
// guarantee no chunk work of the job is in flight; core.Session.Close calls
// it once the job has left the sharing controller.
func (j *Job) ReleaseArena() {
	j.arena = chunkArena{}
}

// MemoStats reports the per-chunk memo's current entry count and the number
// of chunk applications it has served since the arena was last released.
// Only meaningful while the job is quiescent.
func (j *Job) MemoStats() (entries int, hits uint64) {
	return len(j.arena.memo), j.arena.memoHits
}

// touchStateInOrder is the exact fallback for a state phase GroupEntries
// refuses: it re-walks the chunk's raw state accesses (pure address math —
// the compute already ran) and prices them one at a time, in program order,
// exactly as the reference model does.
func (j *Job) touchStateInOrder(edges []graph.Edge, active *Bitmap, allActive bool, cache *memsim.Cache, tally *memsim.Tally) {
	stateBase, vpay := j.StateBase, j.VertexPay
	for _, e := range edges {
		if !allActive && !active.Has(int(e.Src)) {
			continue
		}
		cache.TouchTally(stateBase+uint64(e.Src)*vpay, tally)
		cache.TouchTally(stateBase+uint64(e.Dst)*vpay, tally)
	}
}

// touch prices one access of the per-edge reference model: one
// Cache.Touch, counted in the job's Counters and in tally.
func (j *Job) touch(cache *memsim.Cache, addr uint64, tally *memsim.Tally) {
	if cache.Touch(addr, &j.Ctr) {
		tally.Misses++
	} else {
		tally.Hits++
	}
}

// priceChunk converts a chunk's integer tallies into simulated time and
// commits the metrics: scan, hit and miss counts each cost a single multiply
// here instead of an accumulation per access, and both accounting models
// price through it so their SimMemNS/SimComputeNS agree bit for bit.
func (j *Job) priceChunk(st *StreamStats, tally memsim.Tally, cm CostModel) {
	memNS := uint64(float64(st.Scanned)*cm.ScanNS +
		float64(tally.Hits)*cm.LLCHitNS + float64(tally.Misses)*cm.LLCMissNS)
	computeNS := uint64(float64(st.Processed) * cm.WorkNS * j.Prog.EdgeCost())
	st.SimNS = memNS + computeNS
	j.AddMetrics(Metrics{
		ScannedEdges:   st.Scanned,
		ProcessedEdges: st.Processed,
		SimMemNS:       memNS,
		SimComputeNS:   computeNS,
	})
}
