package core

import (
	"fmt"

	"graphm/internal/graph"
)

// This file is the programming interface of Table 1 in user-facing form.
// The correspondence:
//
//	Init()              -> NewSystem (graph preprocessing: Formula 1 +
//	                       Algorithm 1 labelling)
//	GetActiveVertices() -> ActivePartitions / the beginIteration step of the
//	                       per-job driver
//	Sharing()           -> System.sharing via the driver (Algorithm 2)
//	Start()/Barrier()   -> SharedPartition.ProcessAll (streamTwoPhase) /
//	                       partitionBarrier via the driver
//
// plus the evolving-graph operations of Section 3.3.2 (MutateChunk /
// UpdateChunk) and read-side helpers used by examples and tests.

// NumPartitions returns the number of engine partitions under management.
func (s *System) NumPartitions() int { return len(s.parts) }

// ChunkCount returns the number of logical chunks labelled in partition pid
// under its current labelling (adaptive chunking may change it between
// partition openings).
func (s *System) ChunkCount(pid int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	set, ok := s.sets[pid]
	if !ok {
		return 0
	}
	return set.NumChunks()
}

// ChunkBytes returns the Formula (1) chunk size chosen at Init time.
func (s *System) ChunkBytes() int64 { return s.stats.ChunkBytes }

// ResolvedCores returns the core count the system was sized for: Config.Cores,
// with zero resolved to runtime.GOMAXPROCS(0) at NewSystem time.
func (s *System) ResolvedCores() int { return s.cores }

// ActivePartitions reports which partitions a job with the given active
// bitmap would need — the GetActiveVertices() step. It is exposed so engine
// integrations and tests can inspect the global-table inputs.
func (s *System) ActivePartitions(active interface{ AnyInRange(lo, hi int) bool }) []int {
	var out []int
	for _, p := range s.parts {
		if len(p.Edges) == 0 {
			continue
		}
		if active.AnyInRange(p.SrcLo, p.SrcHi) {
			out = append(out, p.ID)
		}
	}
	return out
}

// baseChunkEdgesLocked returns the shared base edges of (pid, chunkIdx)
// under the partition's current labelling. Caller holds s.mu: adaptive
// chunking rewrites s.sets at partition barriers, and chunk indices are only
// meaningful against one labelling epoch.
func (s *System) baseChunkEdgesLocked(pid, chunkIdx int) ([]graph.Edge, error) {
	set, ok := s.sets[pid]
	if !ok {
		return nil, fmt.Errorf("core: unknown partition %d", pid)
	}
	if chunkIdx < 0 || chunkIdx >= len(set.Chunks) {
		return nil, fmt.Errorf("core: partition %d has no chunk %d", pid, chunkIdx)
	}
	t := set.Chunks[chunkIdx]
	return s.partByID[pid].Edges[t.FirstEdge : t.FirstEdge+t.NumEdges], nil
}

// MutateChunk applies a job-private mutation: mutate transforms the chunk's
// current edges (as seen by the job) into the new edge set. The mutation is
// visible only to jobID (Section 3.3.2, "mutation 2" in Figure 7); the
// shared base chunk is untouched.
//
// The callback runs with no System lock held, so it may call back into the
// System freely. Consistency against adaptive re-labelling is kept by
// optimistic validation instead: the view is read under the partition's
// current labelling epoch, and if a re-label lands while the callback runs
// (changing what chunkIdx means), the view is re-read and the callback
// re-run against it.
func (s *System) MutateChunk(jobID, pid, chunkIdx int, mutate func(edges []graph.Edge) []graph.Edge) error {
	for {
		s.mu.Lock()
		epoch, ok := s.chunkEpochLocked(pid)
		if !ok {
			s.mu.Unlock()
			return fmt.Errorf("core: unknown partition %d", pid)
		}
		cur, err := s.chunkViewEdgesLocked(jobID, pid, chunkIdx)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		in := append([]graph.Edge(nil), cur...)
		s.mu.Unlock()

		out := mutate(in)

		s.mu.Lock()
		if now, ok := s.chunkEpochLocked(pid); !ok || now != epoch {
			// The partition was re-labelled under the callback: chunkIdx now
			// names a different slice of the stream. Retry on the new view.
			s.mu.Unlock()
			continue
		}
		s.snaps.mutate(jobID, pid, chunkIdx, out, s.mem.AllocAddr)
		s.mu.Unlock()
		return nil
	}
}

// chunkEpochLocked returns the partition's current labelling epoch.
func (s *System) chunkEpochLocked(pid int) (int, bool) {
	set, ok := s.sets[pid]
	if !ok {
		return 0, false
	}
	return set.Epoch, true
}

// mutateChunkLocked is the internal form for callers already holding s.mu
// with an internal (non-reentrant) callback — the evolve helpers, whose
// closures never touch the System.
func (s *System) mutateChunkLocked(jobID, pid, chunkIdx int, mutate func(edges []graph.Edge) []graph.Edge) error {
	cur, err := s.chunkViewEdgesLocked(jobID, pid, chunkIdx)
	if err != nil {
		return err
	}
	in := append([]graph.Edge(nil), cur...)
	s.snaps.mutate(jobID, pid, chunkIdx, mutate(in), s.mem.AllocAddr)
	return nil
}

// UpdateChunk installs a graph update: new edges for (pid, chunkIdx) that
// become the base for jobs submitted after the update; jobs already running
// keep their snapshot ("update 3" in Figure 7). It returns the new snapshot
// version.
func (s *System) UpdateChunk(pid, chunkIdx int, edges []graph.Edge) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.updateChunkLocked(pid, chunkIdx, edges)
}

func (s *System) updateChunkLocked(pid, chunkIdx int, edges []graph.Edge) (int, error) {
	if _, err := s.baseChunkEdgesLocked(pid, chunkIdx); err != nil {
		return 0, err
	}
	return s.snaps.update(pid, chunkIdx, edges, s.mem.AllocAddr), nil
}

// ChunkView returns the edges of (pid, chunkIdx) exactly as job jobID
// observes them through its snapshot. For an unknown job (e.g. a job ID that
// never ran), the view is the job-less current base.
func (s *System) ChunkView(jobID, pid, chunkIdx int) ([]graph.Edge, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chunkViewEdgesLocked(jobID, pid, chunkIdx)
}

func (s *System) chunkViewEdgesLocked(jobID, pid, chunkIdx int) ([]graph.Edge, error) {
	base, err := s.baseChunkEdgesLocked(pid, chunkIdx)
	if err != nil {
		return nil, err
	}
	born := s.snaps.currentVersion()
	if js, ok := s.jobs[jobID]; ok {
		born = js.born
	}
	if cpy := s.snaps.resolve(jobID, born, pid, chunkIdx); cpy != nil {
		return cpy.edges, nil
	}
	return base, nil
}

// SnapshotVersion returns the current global snapshot version; jobs
// submitted now observe updates up to this version.
func (s *System) SnapshotVersion() int { return s.snaps.currentVersion() }

// OverrideChunks reports how many copy-on-write chunks are live, for tests
// verifying that copies are released when jobs finish.
func (s *System) OverrideChunks() int { return s.snaps.overrideCount() }

// ProfiledCosts returns the profiled T(F_j) and T(E) of a running job and
// whether profiling completed; zeros for unknown jobs.
func (s *System) ProfiledCosts(jobID int) (tF, tE float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, found := s.jobs[jobID]
	if !found {
		return 0, 0, false
	}
	return js.prof.tF, js.prof.tE, js.prof.profiled
}
