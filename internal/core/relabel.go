package core

import "graphm/internal/chunk"

// Adaptive chunk re-labelling: Formula (1) applied to dynamic concurrency.
//
// The paper sizes logical chunks so that the working sets of the N jobs
// sharing a partition fit in the LLC together, but the seed runtime computed
// S_c exactly once at NewSystem with N pinned to the core count — while the
// admission service and mid-round attach/detach vary the attending-job count
// continuously. Under-counting N leaves chunks too big (followers re-stream
// a chunk the leader's pass no longer keeps resident: LLC thrash); over-
// counting leaves them needlessly small (more chunk barriers than the
// sharing requires).
//
// With Config.AdaptiveChunking, the controller re-evaluates Formula (1)
// every time it opens a partition, using N = the number of jobs about to
// attend it. Partition-open time is a barrier by construction: the previous
// partition's attendees have all passed their partition barrier, no chunk
// is in flight, and the new curPartition has not been published — so no
// streaming pass can observe a half-swapped labelling.
// Sets are immutable; a re-label installs a fresh Set (next epoch) and
// rebases the snapshot store's version/override chunk keys onto it (see
// snapshotStore.relabelPartition), leaving every job's observed edge stream
// bit-identical.

// maybeRelabelLocked applies the adaptive sizing rule for partition pid
// about to be opened for `attendees` jobs. Caller holds s.mu.
func (s *System) maybeRelabelLocked(pid, attendees int) {
	if !s.cfg.AdaptiveChunking {
		return
	}
	n := attendees
	if n < 1 {
		n = 1
	}
	target, err := chunk.ChunkSize(chunk.SizeParams{
		NumCores:  n,
		LLCBytes:  s.cfg.LLCBytes,
		GraphSize: s.g.SizeBytes(),
		NumV:      int64(s.g.NumV),
		VertexPay: s.cfg.VertexPay,
		Reserved:  s.cfg.Reserved,
	})
	if err != nil {
		// Degenerate sizing (cannot happen once NewSystem accepted the same
		// parameters with a different N): keep the current labelling.
		return
	}
	cur := s.chunkSize[pid]
	if target == cur {
		return
	}
	// Hysteresis: only re-label on drift of at least relabelFactor, so
	// attendance jitter between consecutive rounds does not churn tables.
	f := s.relabelFactor
	if float64(target) < float64(cur)*f && float64(cur) < float64(target)*f {
		s.stats.RelabelSkips++
		return
	}
	part := s.partByID[pid]
	old := s.sets[pid]
	nw := old.Relabel(part.Edges, target)
	s.sets[pid] = nw
	s.chunkSize[pid] = target
	s.stats.NumChunks += nw.NumChunks() - old.NumChunks()
	s.stats.MetadataBytes += nw.MetadataBytes() - old.MetadataBytes()
	s.stats.Relabels++
	// Rebase snapshot state keyed by the old labelling's chunk indices onto
	// the new one. Visibility is per job birth version, so the rebase needs
	// the live jobs' borns to bake job-private override views.
	borns := make(map[int]int, len(s.jobs))
	for id, js := range s.jobs {
		borns[id] = js.born
	}
	s.snaps.relabelPartition(pid, part.Edges, old, nw, borns, s.mem.AllocAddr)
}

// PartitionChunkBytes returns the chunk size partition pid is currently
// labelled with — the NewSystem-time Formula (1) size until adaptive
// chunking re-labels it.
func (s *System) PartitionChunkBytes(pid int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chunkSize[pid]
}

// ChunkEpoch returns partition pid's labelling generation: 0 until adaptive
// chunking first re-labels it, incrementing per re-label.
func (s *System) ChunkEpoch(pid int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	set, ok := s.sets[pid]
	if !ok {
		return 0
	}
	return set.Epoch
}
