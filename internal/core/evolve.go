package core

import (
	"fmt"
	"sort"

	"graphm/internal/graph"
	"graphm/internal/storage"
)

// Edge-level evolving-graph operations (Section 3.3.2 and the paper's
// third future-work item). MutateChunk/UpdateChunk operate on whole chunks;
// the helpers here accept plain edge lists and locate the affected chunks
// themselves, so callers evolve the graph without knowing the chunk layout:
//
//	sys.AddEdges(edges)                 // visible to jobs submitted later
//	sys.RemoveEdges(pred)               // likewise
//	sys.AddEdgesFor(jobID, edges)       // private mutation for one job
//
// Additions are appended to the chunk whose source-vertex range covers the
// edge's source (the engine's streaming order is preserved: new edges are
// streamed with their partition). Removals rewrite every chunk containing a
// matching edge.

// locate returns the partition whose source range covers v, preferring the
// partition that also already holds edges of v.
func (s *System) locate(v graph.VertexID) (*Partition, error) {
	var fallback *Partition
	for _, p := range s.parts {
		if int(v) >= p.SrcLo && int(v) < p.SrcHi {
			if len(p.Edges) > 0 {
				return p, nil
			}
			if fallback == nil {
				fallback = p
			}
		}
	}
	if fallback != nil {
		return fallback, nil
	}
	return nil, fmt.Errorf("core: no partition covers vertex %d", v)
}

// lastChunk returns the index of the partition's final chunk, or an error
// for an unlabelled/empty partition.
func (s *System) lastChunk(pid int) (int, error) {
	set, ok := s.sets[pid]
	if !ok || set.NumChunks() == 0 {
		return 0, fmt.Errorf("core: partition %d has no chunks", pid)
	}
	return set.NumChunks() - 1, nil
}

// AddEdges installs new edges as a graph *update*: jobs submitted after the
// call observe them; running jobs keep their snapshot. It returns the new
// snapshot version. The whole multi-chunk installation runs under one hold
// of the controller lock, and — when a WAL sink is configured — the call
// returns only once its record is durable.
func (s *System) AddEdges(edges []graph.Edge) (int, error) {
	return s.addEdges(edges, true)
}

func (s *System) addEdges(edges []graph.Edge, log bool) (int, error) {
	groups, err := s.groupBySourcePartition(edges)
	if err != nil {
		return 0, err
	}
	// The installation and the WAL append run under the locks; the commit
	// wait runs after BOTH are released. Record order is fixed at append
	// time (under s.mu), so the next evolve op can install and append while
	// this one's batch is still fsyncing — that overlap is what lets the
	// WAL coalesce concurrent evolve streams into shared syncs. A failed
	// append is undone inline; a failed commit rolls back through the
	// transaction registered here (see rollback.go).
	version, commit, txn, err := func() (int, func() error, *evolveTxn, error) {
		s.evolveMu.Lock()
		defer s.evolveMu.Unlock()
		s.mu.Lock()
		defer s.mu.Unlock()
		capture := log && s.evolveSink != nil
		var undos []chunkUndo
		version := s.snaps.currentVersion()
		for _, pid := range sortedPartitionIDs(groups) {
			add := groups[pid]
			k, err := s.lastChunk(pid)
			if err != nil {
				s.applyUndosLocked(undos)
				return 0, nil, nil, err
			}
			cur, err := s.chunkViewEdgesLocked(-1, pid, k)
			if err != nil {
				s.applyUndosLocked(undos)
				return 0, nil, nil, err
			}
			merged := append(append([]graph.Edge(nil), cur...), add...)
			version, err = s.updateChunkLocked(pid, k, merged)
			if err != nil {
				s.applyUndosLocked(undos)
				return 0, nil, nil, err
			}
			if capture {
				undos = append(undos, chunkUndo{jobID: -1, pid: pid, k: k,
					prior: cur, post: merged, added: add})
			}
		}
		if !log {
			return version, nil, nil, nil
		}
		commit, logErr := s.logEvolveLocked(storage.EvolveRecord{Op: storage.EvolveAdd, Edges: edges})
		if logErr != nil {
			// The record never reached the WAL: undo under the same hold that
			// ordered the installation, so the refused op leaves no trace.
			s.applyUndosLocked(undos)
			return 0, nil, nil, logErr
		}
		var txn *evolveTxn
		if commit != nil {
			txn = s.registerEvolveTxnLocked(undos)
		}
		return version, commit, txn, nil
	}()
	if err != nil {
		return 0, err
	}
	if err := s.awaitEvolveCommit(commit, txn); err != nil {
		return 0, err
	}
	return version, nil
}

// AddEdgesFor installs new edges as a *mutation* private to jobID.
func (s *System) AddEdgesFor(jobID int, edges []graph.Edge) error {
	return s.addEdgesFor(jobID, edges, true)
}

func (s *System) addEdgesFor(jobID int, edges []graph.Edge, log bool) error {
	groups, err := s.groupBySourcePartition(edges)
	if err != nil {
		return err
	}
	commit, txn, err := func() (func() error, *evolveTxn, error) {
		s.evolveMu.Lock()
		defer s.evolveMu.Unlock()
		s.mu.Lock()
		defer s.mu.Unlock()
		capture := log && s.evolveSink != nil
		var undos []chunkUndo
		for _, pid := range sortedPartitionIDs(groups) {
			k, err := s.lastChunk(pid)
			if err != nil {
				s.applyUndosLocked(undos)
				return nil, nil, err
			}
			add := groups[pid]
			cur, err := s.chunkViewEdgesLocked(jobID, pid, k)
			if err != nil {
				s.applyUndosLocked(undos)
				return nil, nil, err
			}
			merged := append(append([]graph.Edge(nil), cur...), add...)
			had := s.snaps.hasOverride(jobID, pid, k)
			s.snaps.mutate(jobID, pid, k, merged, s.mem.AllocAddr)
			if capture {
				undos = append(undos, chunkUndo{jobID: jobID, pid: pid, k: k,
					hadOverride: had, prior: cur, post: merged, added: add})
			}
		}
		if !log {
			return nil, nil, nil
		}
		commit, logErr := s.logEvolveLocked(storage.EvolveRecord{Op: storage.EvolveAddFor, JobID: jobID, Edges: edges})
		if logErr != nil {
			s.applyUndosLocked(undos)
			return nil, nil, logErr
		}
		var txn *evolveTxn
		if commit != nil {
			txn = s.registerEvolveTxnLocked(undos)
		}
		return commit, txn, nil
	}()
	if err != nil {
		return err
	}
	return s.awaitEvolveCommit(commit, txn)
}

// RemoveEdges installs an update deleting every edge matching pred; it
// returns the new snapshot version and the number of edges removed. The
// scan locks the controller one partition at a time, so running jobs' chunk
// lockstep proceeds between partitions instead of stalling for the whole
// O(|E|) pass. pred
// runs under that per-partition lock: it must be a pure predicate and must
// not call back into the System.
func (s *System) RemoveEdges(pred func(graph.Edge) bool) (version, removed int, err error) {
	return s.removeEdges(pred, true)
}

func (s *System) removeEdges(pred func(graph.Edge) bool, log bool) (version, removed int, err error) {
	var commit func() error
	var txn *evolveTxn
	version, removed, commit, txn, err = func() (version, removed int, commit func() error, txn *evolveTxn, err error) {
		s.evolveMu.Lock()
		defer s.evolveMu.Unlock()
		s.mu.Lock()
		version = s.snaps.currentVersion()
		collect := log && s.evolveSink != nil
		s.mu.Unlock()
		// The WAL record holds the concrete removed multiset, not the
		// predicate: replay then needs no predicate and is deterministic by
		// construction.
		var removedEdges []graph.Edge
		var undos []chunkUndo
		for _, p := range s.parts {
			s.mu.Lock()
			set := s.sets[p.ID]
			for k := 0; k < set.NumChunks(); k++ {
				cur, err := s.chunkViewEdgesLocked(-1, p.ID, k)
				if err != nil {
					s.applyUndosLocked(undos)
					s.mu.Unlock()
					return 0, 0, nil, nil, err
				}
				kept := make([]graph.Edge, 0, len(cur))
				var chunkRemoved []graph.Edge
				for _, e := range cur {
					if pred(e) {
						removed++
						if collect {
							removedEdges = append(removedEdges, e)
							chunkRemoved = append(chunkRemoved, e)
						}
					} else {
						kept = append(kept, e)
					}
				}
				if len(kept) == len(cur) {
					continue
				}
				version, err = s.updateChunkLocked(p.ID, k, kept)
				if err != nil {
					s.applyUndosLocked(undos)
					s.mu.Unlock()
					return 0, 0, nil, nil, err
				}
				if collect {
					undos = append(undos, chunkUndo{jobID: -1, pid: p.ID, k: k,
						prior: cur, post: kept, removed: chunkRemoved})
				}
			}
			s.mu.Unlock()
		}
		if collect && len(removedEdges) > 0 {
			s.mu.Lock()
			commit, err = s.logEvolveLocked(storage.EvolveRecord{Op: storage.EvolveRemove, Edges: removedEdges})
			if err != nil {
				s.applyUndosLocked(undos)
				s.mu.Unlock()
				return 0, 0, nil, nil, err
			}
			if commit != nil {
				txn = s.registerEvolveTxnLocked(undos)
			}
			s.mu.Unlock()
		}
		return version, removed, commit, txn, nil
	}()
	if err != nil {
		return 0, 0, err
	}
	if err := s.awaitEvolveCommit(commit, txn); err != nil {
		return 0, 0, err
	}
	return version, removed, nil
}

// RemoveEdgesFor applies the deletion as a job-private mutation. Like
// RemoveEdges it locks per partition, and pred must not call back into the
// System.
func (s *System) RemoveEdgesFor(jobID int, pred func(graph.Edge) bool) (removed int, err error) {
	return s.removeEdgesFor(jobID, pred, true)
}

func (s *System) removeEdgesFor(jobID int, pred func(graph.Edge) bool, log bool) (removed int, err error) {
	var commit func() error
	var txn *evolveTxn
	removed, commit, txn, err = func() (removed int, commit func() error, txn *evolveTxn, err error) {
		s.evolveMu.Lock()
		defer s.evolveMu.Unlock()
		s.mu.Lock()
		collect := log && s.evolveSink != nil
		s.mu.Unlock()
		var removedEdges []graph.Edge
		var undos []chunkUndo
		for _, p := range s.parts {
			s.mu.Lock()
			set := s.sets[p.ID]
			for k := 0; k < set.NumChunks(); k++ {
				cur, err := s.chunkViewEdgesLocked(jobID, p.ID, k)
				if err != nil {
					s.applyUndosLocked(undos)
					s.mu.Unlock()
					return 0, nil, nil, err
				}
				// pred runs exactly once per edge: replay predicates are
				// stateful multisets, so a second evaluation would see
				// consumed counts. The view cannot change between this scan
				// and the mutate below — s.mu is held throughout — so
				// installing the precomputed kept slice is equivalent to
				// re-filtering.
				kept := make([]graph.Edge, 0, len(cur))
				var chunkRemoved []graph.Edge
				for _, e := range cur {
					if pred(e) {
						if collect {
							removedEdges = append(removedEdges, e)
							chunkRemoved = append(chunkRemoved, e)
						}
					} else {
						kept = append(kept, e)
					}
				}
				if len(kept) == len(cur) {
					continue
				}
				removed += len(cur) - len(kept)
				had := s.snaps.hasOverride(jobID, p.ID, k)
				s.snaps.mutate(jobID, p.ID, k, kept, s.mem.AllocAddr)
				if collect {
					undos = append(undos, chunkUndo{jobID: jobID, pid: p.ID, k: k,
						hadOverride: had, prior: cur, post: kept, removed: chunkRemoved})
				}
			}
			s.mu.Unlock()
		}
		if collect && len(removedEdges) > 0 {
			s.mu.Lock()
			commit, err = s.logEvolveLocked(storage.EvolveRecord{Op: storage.EvolveRemoveFor, JobID: jobID, Edges: removedEdges})
			if err != nil {
				s.applyUndosLocked(undos)
				s.mu.Unlock()
				return 0, nil, nil, err
			}
			if commit != nil {
				txn = s.registerEvolveTxnLocked(undos)
			}
			s.mu.Unlock()
		}
		return removed, commit, txn, nil
	}()
	if err != nil {
		return 0, err
	}
	if err := s.awaitEvolveCommit(commit, txn); err != nil {
		return 0, err
	}
	return removed, nil
}

// sortedPartitionIDs fixes the installation order of a multi-partition
// update/mutation. Iterating the group map directly let Go's randomized map
// order decide which partition's copy-on-write chunk got which simulated
// address — and since addresses feed the LLC set indexing, the same script
// could count one access a hit in one run and a miss in the next. Found by
// the scenario fuzzer (corpus seed multi-partition-update); partition order
// must be deterministic.
func sortedPartitionIDs(groups map[int][]graph.Edge) []int {
	pids := make([]int, 0, len(groups))
	for pid := range groups {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	return pids
}

// groupBySourcePartition validates endpoints and buckets edges by the
// partition covering their source.
func (s *System) groupBySourcePartition(edges []graph.Edge) (map[int][]graph.Edge, error) {
	groups := make(map[int][]graph.Edge)
	for _, e := range edges {
		if int(e.Src) >= s.g.NumV || int(e.Dst) >= s.g.NumV {
			return nil, fmt.Errorf("core: edge %d->%d outside vertex range [0,%d)", e.Src, e.Dst, s.g.NumV)
		}
		p, err := s.locate(e.Src)
		if err != nil {
			return nil, err
		}
		groups[p.ID] = append(groups[p.ID], e)
	}
	return groups, nil
}
