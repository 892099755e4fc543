package core

// The parallel streaming executor (Section 3.3's streaming pipeline made
// real): instead of each job's goroutine streaming its own chunks serially,
// the round controller hands out (job, chunk) work items and a per-round
// pool of Config.Workers goroutines applies them, with the async partition
// prefetcher (system.go) overlapping the next partition's load with the
// current partition's compute.
//
// The unit of scheduling is one job applying one chunk. Two invariants bound
// what may run concurrently:
//
//   - per-job serialization: a job never has two chunks in flight at once —
//     ProcessEdge mutates per-vertex state that disjoint chunks can share
//     through common destinations;
//   - the FineSync lockstep (Section 3.4): the elected leader streams chunk
//     k into the LLC alone, then every other attendee streams it, and the
//     chunk barrier closes k before k+1 opens.
//
// Within those constraints items are served work-stealing style from one
// shared queue: any idle worker takes the next eligible item whichever job
// it belongs to, so real concurrency tracks the number of attending jobs up
// to the worker count. With FineSync disabled (Share-only ablation) jobs
// stream the partition's chunks independently and the pool interleaves them
// freely, still one in-flight chunk per job.
//
// The pool is per-round: startRoundLocked spawns the workers and they exit
// when their round ends (or the system fails), so an idle System holds no
// goroutines. The serial driver (Workers == 0) bypasses all of this and
// streams two-phase instead (twophase.go).
//
// Adaptive chunk re-labelling composes with the pool through one invariant:
// a partition's labelling is only swapped inside advancePartitionLocked,
// before the new curPartition exists. Every pool structure that counts or
// indexes chunks (execItem.k, execJob.done, the len(cp.set.Chunks) bounds
// here and in processAll) goes through cp.set — the immutable Set pointer
// captured at partition open — never through s.sets, so a re-label can never
// change chunk arithmetic mid-partition in either driver.

// execItem is one schedulable unit: job ej streams chunk k of partition cp.
type execItem struct {
	cp *curPartition
	ej *execJob
	k  int
}

// execJob tracks one pool-driven attendee of one partition.
type execJob struct {
	js *jobState
	// lastDispatched is the highest chunk index handed to the pool for this
	// job (-1 before any); guards double-dispatch across the several places
	// dispatchLocked is called from.
	lastDispatched int
	// done counts chunks this job has finished; finished flips when done
	// reaches the partition's chunk count and wakes ProcessAll.
	done     int
	finished bool
	// running marks a chunk of this job being applied by a worker.
	// processAll does not return while it is set, even after a failure, so
	// the caller may release the job's arena as soon as it regains control.
	running bool
}

// execEnabled reports whether the worker-pool executor drives chunk work.
func (s *System) execEnabled() bool { return s.workers > 0 }

// prefetchEnabled reports whether the async partition prefetcher runs.
func (s *System) prefetchEnabled() bool { return s.execEnabled() && !s.cfg.DisablePrefetch }

// startWorkersLocked spawns the round's worker pool. Workers are bound to
// the round that spawned them (s.round at spawn time) and exit as soon as
// that round ends, so pools of consecutive rounds never mix.
func (s *System) startWorkersLocked() {
	if !s.execEnabled() {
		return
	}
	for i := 0; i < s.workers; i++ {
		go s.workerLoop(s.round)
	}
}

// workerLoop pulls chunk work items off the shared queue and applies them
// until its round ends or the system fails.
func (s *System) workerLoop(round int) {
	for {
		s.mu.Lock()
		for s.err == nil && s.round == round && s.roundActive && len(s.execQueue) == 0 {
			s.workCond.Wait()
		}
		if s.err != nil || s.round != round || !s.roundActive {
			s.mu.Unlock()
			return
		}
		it := s.execQueue[0]
		s.execQueue = s.execQueue[1:]
		it.ej.running = true
		s.inFlight++
		if s.inFlight > s.stats.PeakParallelStreams {
			s.stats.PeakParallelStreams = s.inFlight
		}
		s.mu.Unlock()

		// The chunk application itself runs unlocked: per-job serialization
		// and the lockstep dispatch rules guarantee no two in-flight items
		// share a job, and the LLC model is internally synchronized.
		st := s.streamChunk(it.ej.js, it.cp, it.k)
		s.recordSample(it.ej.js, st)

		s.mu.Lock()
		s.inFlight--
		it.ej.running = false
		it.ej.done++
		finished := it.ej.done == len(it.cp.set.Chunks)
		if finished {
			it.ej.finished = true
		}
		if s.cfg.FineSync {
			s.chunkDoneLocked(it.ej.js, it.cp, finished)
		} else {
			s.dispatchLocked(it.cp)
			// After a failure processAll may be waiting out this item
			// (running) rather than for finished.
			if finished || s.err != nil {
				it.cp.cond.Broadcast()
			}
		}
		s.mu.Unlock()
	}
}

// enqueueLocked appends an item to the shared work queue and wakes the idle
// pool workers (never the jobs parked on round or lockstep wait lists).
func (s *System) enqueueLocked(it execItem) {
	s.execQueue = append(s.execQueue, it)
	s.workCond.Broadcast()
}

// dispatchLocked hands every currently eligible chunk item of the open
// partition to the pool. It is called whenever eligibility may have changed:
// a pool job arrives, the leader finishes, the chunk barrier advances, or an
// attendee detaches. Items are dispatched at most once (lastDispatched) and
// in arrival order, which makes workers=1 execution deterministic.
func (s *System) dispatchLocked(cp *curPartition) {
	if !s.execEnabled() || cp != s.cur {
		return
	}
	n := len(cp.set.Chunks)
	if s.cfg.FineSync {
		k := cp.chunkIdx
		if k >= n {
			return
		}
		if !cp.leaderDone {
			// Only the elected leader may stream chunk k so far. If it is a
			// pool-driven job that has picked the partition up, dispatch it;
			// a self-driven leader proceeds through awaitChunk instead.
			if ej, ok := cp.execByID[cp.leaderID]; ok && ej.lastDispatched < k {
				ej.lastDispatched = k
				s.enqueueLocked(execItem{cp: cp, ej: ej, k: k})
			}
			return
		}
		for _, ej := range cp.execJobs {
			if ej.js.job.ID == cp.leaderID {
				continue // the leader already streamed k
			}
			if ej.lastDispatched < k {
				ej.lastDispatched = k
				s.enqueueLocked(execItem{cp: cp, ej: ej, k: k})
			}
		}
		return
	}
	// Share-only (FineSync off): each job streams its chunks independently,
	// serially per job — dispatch a job's next chunk once its previous one
	// completed.
	for _, ej := range cp.execJobs {
		if !ej.finished && ej.lastDispatched < ej.done && ej.done < n {
			ej.lastDispatched = ej.done
			s.enqueueLocked(execItem{cp: cp, ej: ej, k: ej.done})
		}
	}
}

// processAll registers js as a pool-driven attendee of cp and blocks until
// the pool has applied every chunk for it (or the system failed). It is the
// executor-mode body of SharedPartition.ProcessAll.
func (s *System) processAll(js *jobState, cp *curPartition) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ej := &execJob{js: js, lastDispatched: -1}
	if len(cp.set.Chunks) == 0 {
		ej.finished = true
	}
	cp.execJobs = append(cp.execJobs, ej)
	cp.execByID[js.job.ID] = ej
	s.dispatchLocked(cp)
	for (s.err == nil && !ej.finished) || ej.running {
		cp.cond.Wait()
	}
}
