package core

import "graphm/internal/graph"

// Rollback of evolve operations whose durability failed.
//
// Evolve ops install their chunk views in memory under s.mu and append the
// WAL record under the same hold, so installation order always equals record
// order and concurrent ops coalesce their fsyncs (the commit is awaited
// outside the locks). The price of that overlap used to be a phantom-commit
// window: an op whose append or group commit failed had already mutated
// memory, and the unacknowledged edges stayed visible — to degraded-mode
// reads, and to any checkpoint taken before the next restart — even though
// the client was told 503 and must re-offer the mutation.
//
// This file closes the window. Every logged evolve op captures, per touched
// chunk, the pre-install view, the post-install view and the edge delta:
//
//   - an append failure (the record never reached the WAL) is undone inline,
//     under the same s.mu hold that ordered the installation, so the failed
//     op leaves no trace at all;
//   - a commit failure is undone by resolveEvolveTxn: the op registers a
//     transaction at append time, and undos are applied strictly at the tail
//     of the installation order (a failed op beneath a still-pending one
//     waits for that op to resolve first), which is exactly reverse
//     installation order — group-committed batches fail wholesale, so the
//     failed suffix unwinds to the last durable state.
//
// The undo itself is bit-exact in the expected case: if the chunk still
// shows exactly the view the op installed, the captured pre-install view is
// reinstalled verbatim. If the chunk moved on — a later op that committed
// durably after a probe re-armed the WAL mid-unwind — the undo falls back
// to multiset compensation (remove this op's added edges tail-first /
// re-append its removed edges), which keeps memory multiset-equal to the
// durable state even though within-chunk order may differ from a pure
// replay.
//
// Checkpoint interacts through the same registry: captureStateLocked must
// never fold an unresolved installation into a durable snapshot (that would
// promote a potentially-failed record to durable state), so Checkpoint
// drains the transaction list before rotating the WAL.

// chunkUndo is the captured pre-state of one chunk one evolve op touched.
type chunkUndo struct {
	jobID int // -1 = shared snapshot update; >= 0 = job-private mutation
	pid   int
	k     int
	// hadOverride records whether the job already held a private copy of
	// (pid, k) before this op; if not, an exact undo deletes the override the
	// op created instead of rewriting it, keeping OverrideChunks accounting
	// identical to the op never having run.
	hadOverride bool

	prior []graph.Edge // view before this op's install
	post  []graph.Edge // view this op installed

	added   []graph.Edge // edges this op appended to (pid, k)
	removed []graph.Edge // edges this op removed from (pid, k)
}

// evolveTxn tracks one logged evolve op from append to commit resolution.
type evolveTxn struct {
	undos []chunkUndo
	state int
}

const (
	txnPending = iota
	txnCommitted
	txnFailed
)

// registerEvolveTxnLocked records a successfully appended op's undos.
// Caller holds evolveMu and s.mu; list order is installation order.
func (s *System) registerEvolveTxnLocked(undos []chunkUndo) *evolveTxn {
	txn := &evolveTxn{undos: undos}
	s.evolveTxns = append(s.evolveTxns, txn)
	return txn
}

// awaitEvolveCommit waits for an op's group commit and resolves its
// transaction: on failure the installation is rolled back before the error
// reaches the caller, so a 503'd mutation is never left visible. Call with
// no locks held.
func (s *System) awaitEvolveCommit(commit func() error, txn *evolveTxn) error {
	if commit == nil {
		return nil
	}
	err := commit()
	if txn != nil {
		s.resolveEvolveTxn(txn, err)
	}
	return err
}

// resolveEvolveTxn records the commit outcome and applies every undo that
// has become applicable.
func (s *System) resolveEvolveTxn(txn *evolveTxn, commitErr error) {
	s.evolveMu.Lock()
	defer s.evolveMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if commitErr != nil {
		txn.state = txnFailed
	} else {
		txn.state = txnCommitted
	}
	s.processEvolveTxnsLocked()
}

// processEvolveTxnsLocked pops resolved transactions off the tail of the
// installation order, undoing the failed ones. Only ever unwinding the tail
// guarantees undos apply in exactly reverse installation order; a resolved
// transaction beneath a still-pending one waits (WAL batches resolve in
// order, so the wait is bounded by the pending op's own commit).
func (s *System) processEvolveTxnsLocked() {
	for n := len(s.evolveTxns); n > 0; n = len(s.evolveTxns) {
		txn := s.evolveTxns[n-1]
		if txn.state == txnPending {
			return
		}
		if txn.state == txnFailed {
			s.applyUndosLocked(txn.undos)
		}
		s.evolveTxns = s.evolveTxns[:n-1]
	}
	// Drained: wake a Checkpoint waiting to capture a consistent state.
	s.evolveCond.Broadcast()
}

// applyUndosLocked unwinds one op's chunk installs in reverse install order.
func (s *System) applyUndosLocked(undos []chunkUndo) {
	for i := len(undos) - 1; i >= 0; i-- {
		s.applyUndoLocked(undos[i])
	}
}

func (s *System) applyUndoLocked(u chunkUndo) {
	if u.jobID >= 0 && !s.snaps.hasOverride(u.jobID, u.pid, u.k) {
		// The job finished between install and rollback and its private
		// overrides were released; reinstalling one now would orphan it.
		// (A job that never opened a session still has its override live —
		// mutations don't require a session — so liveness in s.jobs is not
		// the right test.)
		return
	}
	cur, err := s.chunkViewEdgesLocked(u.jobID, u.pid, u.k)
	if err == nil && edgeSlicesEqual(cur, u.post) {
		// The chunk is exactly as this op left it: reinstall the captured
		// pre-install view bit-for-bit.
		if u.jobID < 0 {
			if _, err := s.updateChunkLocked(u.pid, u.k, u.prior); err == nil {
				return
			}
		} else {
			if u.hadOverride {
				s.snaps.mutate(u.jobID, u.pid, u.k, u.prior, s.mem.AllocAddr)
			} else {
				// The op created this override; deleting it restores both the
				// view (back to the shared base) and the override count.
				s.snaps.dropOverride(u.jobID, u.pid, u.k)
			}
			return
		}
	}
	// The chunk moved on (a later install landed on top): compensate at
	// the multiset level instead.
	if len(u.added) > 0 {
		s.removeTailMultisetLocked(u.jobID, u.pid, u.added)
	}
	if len(u.removed) > 0 {
		s.appendLastChunkLocked(u.jobID, u.pid, u.removed)
	}
}

// removeTailMultisetLocked deletes one instance of each given edge from the
// partition's view, scanning chunks and edges from the tail — additions
// append at the tail, so in the uncontended case this strips exactly the
// appended suffix.
func (s *System) removeTailMultisetLocked(jobID, pid int, edges []graph.Edge) {
	counts := make(map[graph.Edge]int, len(edges))
	for _, e := range edges {
		counts[e]++
	}
	remaining := len(edges)
	set, ok := s.sets[pid]
	if !ok {
		return
	}
	for k := set.NumChunks() - 1; k >= 0 && remaining > 0; k-- {
		cur, err := s.chunkViewEdgesLocked(jobID, pid, k)
		if err != nil {
			continue
		}
		kept := make([]graph.Edge, 0, len(cur))
		for i := len(cur) - 1; i >= 0; i-- {
			e := cur[i]
			if remaining > 0 && counts[e] > 0 {
				counts[e]--
				remaining--
				continue
			}
			kept = append(kept, e)
		}
		if len(kept) == len(cur) {
			continue
		}
		// kept was collected back-to-front; restore stream order.
		for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
			kept[i], kept[j] = kept[j], kept[i]
		}
		if jobID < 0 {
			s.updateChunkLocked(pid, k, kept) //nolint:errcheck // chunk existence was just validated
		} else {
			s.snaps.mutate(jobID, pid, k, kept, s.mem.AllocAddr)
		}
	}
}

// appendLastChunkLocked re-appends edges to the partition's final chunk —
// the same placement AddEdges uses.
func (s *System) appendLastChunkLocked(jobID, pid int, edges []graph.Edge) {
	k, err := s.lastChunk(pid)
	if err != nil {
		return
	}
	cur, err := s.chunkViewEdgesLocked(jobID, pid, k)
	if err != nil {
		return
	}
	merged := append(append([]graph.Edge(nil), cur...), edges...)
	if jobID < 0 {
		s.updateChunkLocked(pid, k, merged) //nolint:errcheck // chunk existence was just validated
	} else {
		s.snaps.mutate(jobID, pid, k, merged, s.mem.AllocAddr)
	}
}
