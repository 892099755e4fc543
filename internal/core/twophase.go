package core

import "graphm/internal/chunk"

// Two-phase partition streaming: SharedPartition.ProcessAll under FineSync.
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
//     computes every attendee's chunks on its own goroutine, chunk by chunk
//     in ascending job ID (engine.Job.CollectChunk into consecutive record
//     slots), without touching the cache; the other callers stay parked.
//  2. Price. A pricing goroutine the owner starts for the window prices
//     each chunk as soon as every attendee's copy of it is collected. The
//     pricer's loop is the lockstep: for each chunk it elects the Formula
//     (4) leader, then prices the leader first and the other attendees in
//     ascending job ID. Every attendee's stream phase
//     (engine.Job.PriceStream) comes before any attendee's state phase
//     (engine.Job.PriceChunk), so the followers scan the chunk the leader
//     just pulled into the LLC. The pricer records every attendee's
//     samples; after the partition's last window the owner runs their
//     profiling-phase observations in ascending job ID and then wakes the
//     attendees once.
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
// chunk in ascending job ID, while a pricing goroutine it starts prices
// each chunk as soon as every attendee's copy is collected (priceWindow),
// and returns once both are done. It is called and returns with s.mu held,
// and drops the lock meanwhile. No attendee is pending once an owner
// exists, so cp.attend is fixed throughout.
func (s *System) streamWindowLocked(cp *curPartition, lo, hi int) {
	owned := cp.attend // ascending job ID
	s.mu.Unlock()
	for _, a := range owned {
		a.job.ReserveSlots(hi - lo)
	}
	// collected carries one token per chunk whose copies are all collected;
	// it holds the whole window, so the collection never blocks on pricing.
	collected := make(chan struct{}, hi-lo)
	priced := make(chan struct{})
	go func() {
		s.priceWindow(cp, owned, lo, hi, collected)
		close(priced)
	}()
	if s.sem != nil {
		s.sem <- struct{}{}
	}
	for k := lo; k < hi; k++ {
		for _, a := range owned {
			edges, base, first := s.chunkEdges(a, cp, k)
			if s.cfg.PerEdgeSim {
				a.job.CollectChunkPerEdge(k-lo, edges, base, first)
			} else {
				a.job.CollectChunk(k-lo, edges, base, first, s.cache)
			}
		}
		collected <- struct{}{}
	}
	if s.sem != nil {
		<-s.sem
	}
	<-priced
	s.mu.Lock()
	if hi == len(cp.set.Chunks) {
		for _, a := range owned {
			s.observeLocked(a)
		}
	}
}

// priceWindow prices chunks [lo, hi) of cp for the owned attendees in
// lockstep order, taking one token from collected before each chunk. It
// runs without s.mu: while the window is owned nothing else reads or
// writes the owned attendees' profiles, samples or chunk records.
func (s *System) priceWindow(cp *curPartition, owned []*jobState, lo, hi int, collected <-chan struct{}) {
	order := make([]*jobState, 0, len(owned))
	for k := lo; k < hi; k++ {
		// Elect after the token: the collection's first frontier read of an
		// iteration caches the bitmap's fullness, and the token orders that
		// write before the election's read.
		<-collected
		lead := s.electLeader(owned, cp.set.Chunks[k])
		order = append(order[:0], owned[lead])
		for i, a := range owned {
			if i != lead {
				order = append(order, a)
			}
		}
		// The leader's scan pulls the chunk into the LLC and the followers'
		// scans reuse it before any state phase competes for the sets.
		for _, a := range order {
			a.job.PriceStream(k-lo, s.cache)
		}
		for _, a := range order {
			s.recordSample(a, a.job.PriceChunk(k-lo, s.cache, s.cost))
		}
	}
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
