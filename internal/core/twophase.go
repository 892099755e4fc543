package core

import "graphm/internal/chunk"

// Two-phase partition streaming: SharedPartition.ProcessAll.
//
// The chunk lockstep of Section 3.4 orders the LLC: the elected leader
// pulls chunk k into the cache, the other attendees reuse it, and chunk k
// closes before k+1 opens. That order only matters to the simulated cache;
// a job's compute reads and writes nothing but its own vertex state. So the
// partition is streamed in two phases, one window of consecutive chunks
// (twoPhaseWindow) at a time, and the two phases run as a pipeline:
//
//  1. Collect. Once every attendee has reached the window, the ProcessAll
//     caller that completes the count becomes the window's single owner. It
//     collects every attendee's chunks on its own goroutine into
//     consecutive record slots, without touching the cache; the other
//     callers stay parked. For each chunk it first opens every attendee's
//     record (engine.Job.OpenChunk: the copy's range, the frontier and its
//     fullness), then computes the copies in ascending job ID
//     (engine.Job.CollectChunk).
//  2. Price. A pricing goroutine the owner starts for the window trails the
//     collection by one attendee's copy. The pricer's loop is the lockstep:
//     for each chunk it elects the Formula (4) leader, then prices the
//     leader first and the other attendees in ascending job ID. Every
//     attendee's stream phase (engine.Job.PriceStream) comes before any
//     attendee's state phase (engine.Job.PriceChunk), so the followers scan
//     the chunk the leader just pulled into the LLC; a follower that shares
//     the leader's copy settles its scan in O(1) (memsim.Cache.ScanChunk).
//     Share-only (FineSync off) has no lockstep: the pricer prices each
//     attendee's whole window in turn, in ascending job ID, as if the job
//     had streamed it alone. The pricer records every attendee's samples;
//     after the partition's last window the owner runs their
//     profiling-phase observations in ascending job ID and then wakes the
//     attendees once.
//
// The owner hands the window to the pricer through one channel of tokens,
// sized to the window so the collection never blocks: for each chunk, one
// token once every attendee's record of it is open, then one per
// attendee's computed copy, in ascending job ID. A stream phase reads only
// an opened record, so the pricer scans a chunk for every attendee as soon
// as its open token arrives, while the copies are still being computed,
// and settles each copy's state phase once that copy's token has arrived.
// Share-only takes the same tokens. The election stays on the pricer: it
// reads each attendee's frontier, whose fullness opening a record caches,
// and the open token orders that write before the read. Electing on the
// collector instead, so that it could compute the copies in pricing order,
// moved the election's work onto the collector, which then bounded the
// pipeline: it measured no faster than the O(1) follower scans alone.
//
// Collection and pricing each run on one goroutine, so a window keeps two
// cores busy for its whole length whatever the attendance, instead of a
// burst of short per-job collections followed by a serial pricing pass,
// whose overlap depended on how fast the Go scheduler woke an idle core.
// The window bounds the collected-but-unpriced records a job holds to a
// few dozen chunks' state accesses instead of a whole partition's.
//
// A job's goroutine therefore parks once per window instead of twice per
// chunk, the cache has one writer, and every simulated number of a run is
// independent of goroutine interleaving.

// twoPhaseWindow is how many chunks an owner collects before the window
// is priced to its end. It bounds what a job holds between its collection
// and the pricing (about a kilobyte of set-grouped state accesses per
// chunk on uk-union) while the job's goroutine still parks once per window
// instead of twice per chunk.
const twoPhaseWindow = 32

// streamTwoPhase applies every chunk of cp for js in the two phases above,
// one window of chunks at a time, and returns once the owners have priced
// them, or once the system failed. It never returns while an owner may
// still read the job's chunk records, so the caller may release the job's
// arena as soon as it regains control.
func (s *System) streamTwoPhase(js *jobState, cp *curPartition) {
	n := len(cp.set.Chunks)
	for w, lo := 0, 0; ; w, lo = w+1, lo+s.window {
		hi := min(lo+s.window, n)
		if !s.awaitWindow(js, cp, w, lo, hi) || hi == n {
			return
		}
	}
}

// awaitWindow declares js for window w (chunks [lo, hi)) and returns once
// the window is collected and priced — by js itself when its declaration
// completes the count — reporting whether the system is still healthy.
func (s *System) awaitWindow(js *jobState, cp *curPartition, w, lo, hi int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	js.collected = cp
	cp.declared++
	// Attendance only shrinks while an election is open (a pending attendee
	// detaching), and detachLocked broadcasts cond, so a waiter re-checks
	// the election whenever it can have become due.
	for cp.priced <= w {
		if !cp.owned {
			if s.err != nil {
				return false
			}
			if cp.declared == len(cp.attend) {
				cp.owned = true
				s.streamWindowLocked(cp, lo, hi)
				cp.owned, cp.declared = false, 0
				cp.priced++
				cp.cond.Broadcast()
				break
			}
		}
		cp.cond.Wait()
	}
	return s.err == nil
}

// streamWindowLocked is the owner's pass over chunks [lo, hi) of cp: it
// collects every attendee's chunks into record slots 0..hi-lo-1, chunk by
// chunk, while a pricing goroutine it starts prices each attendee's copy as
// soon as it is collected (priceWindow), and returns once both are done.
// It is called and returns with s.mu held, and drops the lock meanwhile.
// No attendee is pending once an owner exists, so cp.attend is fixed
// throughout.
func (s *System) streamWindowLocked(cp *curPartition, lo, hi int) {
	owned := cp.attend // ascending job ID
	s.mu.Unlock()
	for _, a := range owned {
		a.job.ReserveSlots(hi - lo)
	}
	// tokens carries, for each chunk in turn, one token once every
	// attendee's record of it is open and then one per attendee's collected
	// copy, in ascending job ID. It holds the whole window, so the
	// collection never blocks on pricing.
	tokens := make(chan struct{}, (hi-lo)*(len(owned)+1))
	priced := make(chan struct{})
	var simNS uint64
	go func() {
		simNS = s.priceWindow(cp, owned, lo, hi, tokens)
		close(priced)
	}()
	for k := lo; k < hi; k++ {
		for _, a := range owned {
			edges, base, first := s.chunkEdges(a, cp, k)
			a.job.OpenChunk(k-lo, edges, base, first, s.cfg.PerEdgeSim)
		}
		tokens <- struct{}{}
		for _, a := range owned {
			a.job.CollectChunk(k-lo, s.cache)
			tokens <- struct{}{}
		}
	}
	<-priced
	s.mu.Lock()
	s.clock += simNS / uint64(s.cores)
	if hi == len(cp.set.Chunks) {
		for _, a := range owned {
			s.observeLocked(a)
		}
	}
}

// priceWindow prices chunks [lo, hi) of cp for the owned attendees, in
// lockstep order under FineSync and job-major in Share-only, taking from
// tokens (see streamWindowLocked) before it reads a record: the chunk's
// open token before its election and stream phases, and an attendee's copy
// token before the rest of that copy's pricing, and returns the sum of the
// priced chunks' SimNS. It runs without s.mu: while
// the window is owned nothing else reads or writes the owned attendees'
// profiles or samples, and only the owner's collection, which the tokens
// order, writes their chunk records.
func (s *System) priceWindow(cp *curPartition, owned []*jobState, lo, hi int, tokens <-chan struct{}) (simNS uint64) {
	// await returns once the token of attendee i's copy of chunk k has
	// been taken, or with i = -1 that of the chunk's opened records.
	got := 0
	await := func(k, i int) {
		for want := (k-lo)*(len(owned)+1) + i + 2; got < want; got++ {
			<-tokens
		}
	}
	if !s.cfg.FineSync {
		for i, a := range owned {
			for k := lo; k < hi; k++ {
				await(k, i)
				simNS += s.recordSample(a, a.job.PriceChunk(k-lo, s.cache, s.cost))
			}
		}
		return simNS
	}
	order := make([]int, 0, len(owned)) // indices into owned, leader first
	for k := lo; k < hi; k++ {
		// Elect after the open token: opening a record caches the
		// frontier's fullness, and the token orders that write before the
		// election's read.
		await(k, -1)
		lead := s.electLeader(owned, cp.set.Chunks[k])
		order = append(order[:0], lead)
		for i := range owned {
			if i != lead {
				order = append(order, i)
			}
		}
		// The leader's scan pulls the chunk into the LLC and the followers'
		// scans reuse it before any state phase competes for the sets; a
		// follower that shares the leader's copy settles in O(1) (see
		// memsim.Cache.ScanChunk). The scans read only the opened records,
		// so they run while the copies are still being collected.
		for _, i := range order {
			owned[i].job.PriceStream(k-lo, s.cache)
		}
		for _, i := range order {
			await(k, i)
			simNS += s.recordSample(owned[i], owned[i].job.PriceChunk(k-lo, s.cache, s.cost))
		}
	}
	return simNS
}

// electLeader returns the index in js of the attendee with the highest
// Formula (4) lead time for chunk t, the first one on a tie. Unprofiled
// jobs use optimistic defaults, matching the paper where new jobs are
// profiled on their first partitions.
func (s *System) electLeader(js []*jobState, t *chunk.Table) int {
	lead, best := 0, -1.0
	for i, a := range js {
		tF, tE := a.prof.tF, a.prof.tE
		if !a.prof.profiled {
			tF, tE = s.cost.WorkNS*a.job.Prog.EdgeCost(), s.cost.ScanNS
		}
		if lt := chunkLeadTime(tF, tE, t, a.job.Prog.Active()); lt > best {
			lead, best = i, lt
		}
	}
	return lead
}
