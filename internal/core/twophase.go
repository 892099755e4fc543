package core

// Two-phase partition streaming: the serial driver's (Workers == 0)
// SharedPartition.ProcessAll under FineSync.
//
// The chunk lockstep of Section 3.4 orders the LLC: the elected leader
// pulls chunk k into the cache, the other attendees reuse it, and chunk k
// closes before k+1 opens. That order only matters to the simulated cache;
// a job's compute reads and writes nothing but its own vertex state. So the
// partition is streamed in two phases, one window of consecutive chunks
// (twoPhaseWindow) at a time, and the two phases run as a pipeline:
//
//  1. Collect. Once every attendee has declared how it streams (a
//     ProcessAll caller when it arrives at the window, a self-driven
//     Next/Process caller once, at its first Next), the ProcessAll caller
//     that completes the count becomes the window's single owner. It
//     computes every declared attendee's chunks on its own goroutine,
//     chunk by chunk in ascending job ID (engine.Job.CollectChunk into
//     consecutive record slots), without touching the cache or the
//     lockstep; the other ProcessAll callers stay parked.
//  2. Price. A pricing goroutine the owner starts for the window prices
//     each chunk as soon as every attendee's copy of it is collected, in a
//     fixed order: the chunk's Formula (4) leader first, then the other
//     attendees in ascending job ID. Every attendee's stream phase
//     (engine.Job.PriceStream) comes before any attendee's state phase
//     (engine.Job.PriceChunk), so the followers scan the chunk the leader
//     just pulled into the LLC. Each chunk closes through the ordinary
//     lockstep before the next opens. The pricer records every attendee's
//     samples and, after the partition's last window, runs their
//     profiling-phase observations in ascending job ID; the owner then
//     wakes the attendees once.
//
// Collection and pricing each run on one goroutine, so a window keeps two
// cores busy for its whole length whatever the attendance, instead of a
// burst of short per-job collections followed by a serial pricing pass,
// whose overlap depended on how fast the Go scheduler woke an idle core.
// The window bounds the collected-but-unpriced records a job holds to a
// few dozen chunks' state accesses instead of a whole partition's.
//
// A job's goroutine therefore parks once per window instead of twice per
// chunk, the cache has one writer, and with only ProcessAll attendees (the
// built-in driver and the admission service) every simulated number of a
// run is independent of goroutine interleaving. Self-driven attendees keep
// streaming through awaitChunk/chunkDone: the pricer prices its attendees'
// share of each chunk within the same lockstep, waiting for a self-driven
// leader to fill the chunk and for the chunk to close, so the two kinds mix
// on one partition (the cache order among them then follows wall clock).

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
			if cp.declared+cp.streaming == len(cp.attend) {
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
// collects the chunks of every attendee that declared the window into
// record slots 0..hi-lo-1, chunk by chunk in ascending job ID, while a
// pricing goroutine it starts prices each chunk as soon as every attendee's
// copy is collected (priceLocked), and returns once both are done. It is
// called and returns with s.mu held, and drops the lock meanwhile. No
// attendee is pending once an owner exists, so cp.attend is fixed
// throughout.
func (s *System) streamWindowLocked(cp *curPartition, lo, hi int) {
	var owned []*jobState // ascending job ID, as cp.attend is
	for _, a := range cp.attend {
		if a.collected == cp {
			owned = append(owned, a)
		}
	}
	s.mu.Unlock()
	for _, a := range owned {
		a.job.ReserveSlots(hi - lo)
	}
	// collected carries one token per chunk whose copies are all collected;
	// it holds the whole window, so the collection never blocks on pricing.
	collected := make(chan struct{}, hi-lo)
	priced := make(chan struct{})
	go func() {
		s.mu.Lock()
		s.priceLocked(cp, owned, lo, hi, collected)
		s.mu.Unlock()
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
}

// priceLocked prices chunks [lo, hi) of cp for the owned attendees, taking
// one token from collected before each chunk; after the partition's last
// chunk it also runs their profiling-phase observations. It is called and
// returns with s.mu held, and drops the lock while it prices.
func (s *System) priceLocked(cp *curPartition, owned []*jobState, lo, hi int, collected <-chan struct{}) {
	order := make([]*jobState, 0, len(owned))
	for k := lo; k < hi; k++ {
		// Chunk k opens once the owner's own completions close k-1, unless a
		// self-driven attendee is still streaming it; a self-driven leader
		// must fill the LLC before anyone follows.
		lead := -1
		for s.err == nil {
			if cp.chunkIdx == k {
				lead = indexOfJob(owned, cp.leaderID)
				if lead >= 0 || cp.leaderDone {
					break
				}
			}
			s.waitChunkLocked(cp)
		}
		if s.err != nil {
			break
		}
		order = order[:0]
		if lead >= 0 {
			order = append(order, owned[lead])
		}
		for i, a := range owned {
			if i != lead {
				order = append(order, a)
			}
		}
		s.mu.Unlock()
		<-collected
		// The leader's scan pulls the chunk into the LLC and the followers'
		// scans reuse it before any state phase competes for the sets.
		for _, a := range order {
			a.job.PriceStream(k-lo, s.cache)
		}
		for _, a := range order {
			s.recordSample(a, a.job.PriceChunk(k-lo, s.cache, s.cost))
		}
		s.mu.Lock()
		for _, a := range order {
			s.chunkDoneLocked(a, cp, false)
		}
	}
	if hi == len(cp.set.Chunks) {
		for _, a := range owned {
			s.observeLocked(a)
		}
	}
}

// indexOfJob returns the index of the job with ID id in js, or -1.
func indexOfJob(js []*jobState, id int) int {
	for i, a := range js {
		if a.job.ID == id {
			return i
		}
	}
	return -1
}
