package core

import (
	"fmt"
	"sort"
	"sync"

	"graphm/internal/chunk"
	"graphm/internal/graph"
)

// snapshotStore implements Section 3.3.2: consistent snapshots of the shared
// graph under per-job *mutations* (visible only to the mutating job) and
// global *updates* (visible only to jobs submitted afterwards).
//
// The shared base chunk is never modified in place. A mutation copies the
// chunk into a job-private override; an update installs a new chunk version
// stamped with a monotonically increasing version number. A job born at
// version b resolves a chunk as: its own override if any, else the newest
// version ≤ b, else the base chunk.
type snapshotStore struct {
	mu      sync.RWMutex
	version int

	// versions[chunkKey] is ascending by version.
	versions map[uint64][]chunkVersion
	// overrides[jobID][chunkKey] is the job's private mutated chunk.
	overrides map[int]map[uint64]*chunkCopy
}

type chunkVersion struct {
	version int
	copy    *chunkCopy
}

// chunkCopy is a copied chunk: its edges, its simulated address (a fresh
// physical allocation — copies do not share LLC lines with the base), and a
// re-labelled chunk table so Set_c stays coherent (Section 3.3.2 notes Set_c
// must be updated on graph updates).
type chunkCopy struct {
	edges []graph.Edge
	addr  uint64
	table *chunk.Table
}

func newSnapshotStore() *snapshotStore {
	return &snapshotStore{
		versions:  make(map[uint64][]chunkVersion),
		overrides: make(map[int]map[uint64]*chunkCopy),
	}
}

func chunkKey(partID, chunkIdx int) uint64 {
	return uint64(partID)<<32 | uint64(uint32(chunkIdx))
}

// currentVersion returns the store's version; jobs record it at submission.
func (st *snapshotStore) currentVersion() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.version
}

// update installs new edges for (partID, chunkIdx) as a new global version
// and returns the version number. alloc provides simulated addresses.
func (st *snapshotStore) update(partID, chunkIdx int, edges []graph.Edge, alloc func(int64) uint64) int {
	cp := &chunkCopy{
		edges: append([]graph.Edge(nil), edges...),
		addr:  alloc(int64(len(edges)) * graph.EdgeSize),
		table: relabel(edges),
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.version++
	key := chunkKey(partID, chunkIdx)
	st.versions[key] = append(st.versions[key], chunkVersion{version: st.version, copy: cp})
	return st.version
}

// mutate installs a job-private override for (partID, chunkIdx). The base
// the job currently sees is copied implicitly by supplying edges.
func (st *snapshotStore) mutate(jobID, partID, chunkIdx int, edges []graph.Edge, alloc func(int64) uint64) {
	cp := &chunkCopy{
		edges: append([]graph.Edge(nil), edges...),
		addr:  alloc(int64(len(edges)) * graph.EdgeSize),
		table: relabel(edges),
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	m := st.overrides[jobID]
	if m == nil {
		m = make(map[uint64]*chunkCopy)
		st.overrides[jobID] = m
	}
	m[chunkKey(partID, chunkIdx)] = cp
}

// resolve returns the chunk copy job jobID (born at version born) must read
// for (partID, chunkIdx), or nil if the job reads the shared base chunk.
func (st *snapshotStore) resolve(jobID, born, partID, chunkIdx int) *chunkCopy {
	st.mu.RLock()
	defer st.mu.RUnlock()
	key := chunkKey(partID, chunkIdx)
	if m, ok := st.overrides[jobID]; ok {
		if cp, ok := m[key]; ok {
			return cp
		}
	}
	vs := st.versions[key]
	// Newest version not newer than the job's birth.
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].version <= born {
			return vs[i].copy
		}
	}
	return nil
}

// hasOverride reports whether jobID currently holds a private copy of
// (partID, chunkIdx). Rollback uses it to tell "the failed op's override is
// still installed" apart from "the job finished and its overrides were
// released" — only the former may be undone.
func (st *snapshotStore) hasOverride(jobID, partID, chunkIdx int) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	m, ok := st.overrides[jobID]
	if !ok {
		return false
	}
	_, ok = m[chunkKey(partID, chunkIdx)]
	return ok
}

// dropOverride removes one private copy, used by rollback to undo a failed
// mutation that created the override in the first place.
func (st *snapshotStore) dropOverride(jobID, partID, chunkIdx int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	m, ok := st.overrides[jobID]
	if !ok {
		return
	}
	delete(m, chunkKey(partID, chunkIdx))
	if len(m) == 0 {
		delete(st.overrides, jobID)
	}
}

// release drops a finished job's private overrides (the paper releases
// copied chunks when the corresponding job finishes).
func (st *snapshotStore) release(jobID int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.overrides, jobID)
}

// pruneBefore drops versions that no live job can observe: callers pass the
// minimum birth version among live jobs and the current version.
func (st *snapshotStore) pruneBefore(minBorn int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for key, vs := range st.versions {
		// Keep the newest version ≤ minBorn (still readable) and everything
		// newer; drop strictly older ones.
		keepFrom := 0
		for i := len(vs) - 1; i >= 0; i-- {
			if vs[i].version <= minBorn {
				keepFrom = i
				break
			}
		}
		if keepFrom > 0 {
			st.versions[key] = append([]chunkVersion(nil), vs[keepFrom:]...)
		}
	}
}

// overridePartitions lists the (jobID, partitionID) pairs holding live
// job-private overrides, sorted for deterministic checkpoint layout.
func (st *snapshotStore) overridePartitions() [][2]int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out [][2]int
	for jobID, m := range st.overrides {
		seen := make(map[int]bool)
		for key := range m {
			pid := int(key >> 32)
			if !seen[pid] {
				seen[pid] = true
				out = append(out, [2]int{jobID, pid})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// overrideCount reports live override chunks, for tests and stats.
func (st *snapshotStore) overrideCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := 0
	for _, m := range st.overrides {
		n += len(m)
	}
	return n
}

// relabel rebuilds a chunk table for copied edges (one whole chunk).
func relabel(edges []graph.Edge) *chunk.Table {
	set := chunk.Label(0, edges, int64(len(edges)+1)*graph.EdgeSize)
	if len(set.Chunks) == 0 {
		return &chunk.Table{}
	}
	if len(set.Chunks) != 1 {
		panic(fmt.Sprintf("core: relabel produced %d chunks, want 1", len(set.Chunks)))
	}
	return set.Chunks[0]
}
