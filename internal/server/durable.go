package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"graphm/internal/graph"
	"graphm/internal/storage"
)

// Durable-daemon surface: startup recovery (Restore replays the store into
// the system and re-admits pending tickets) and the evolving-graph HTTP
// endpoints whose mutations the WAL makes durable.

// RecoveredState reports what a daemon restart reconstructed — attached to
// RecoveryState, /healthz and /metrics so a crash-recovery smoke test can
// assert recovery happened over plain HTTP.
type RecoveredState struct {
	// CheckpointVersion is the snapshot version of the checkpoint recovery
	// started from (0 when recovery replayed the WAL from empty).
	CheckpointVersion uint64 `json:"checkpoint_version"`
	// WALRecords is how many evolve records replayed on top of it.
	WALRecords int `json:"wal_records"`
	// ResumedTickets counts pending tickets re-admitted under their
	// original IDs; FailedTickets counts pending tickets whose algorithm no
	// longer resolves.
	ResumedTickets int `json:"resumed_tickets"`
	FailedTickets  int `json:"failed_tickets,omitempty"`
}

// Restore performs the daemon's startup recovery against an opened store:
// checkpoint restore, WAL replay, sink attachment (mutations from here on
// are logged), then ticket re-admission. Call once, after New and before
// serving traffic. The store stays attached for /metrics WAL counters and
// checkpoint triggering.
func (s *Server) Restore(st *storage.Store, rec *storage.Recovery) (RecoveredState, error) {
	if s.dsys == nil {
		return RecoveredState{}, fmt.Errorf("restore: backend has no durable surface (only a *core.System is durable)")
	}
	if rec.HasCheckpoint {
		if err := s.dsys.RestorePartitions(rec.Partitions); err != nil {
			return RecoveredState{}, fmt.Errorf("restore checkpoint: %w", err)
		}
		if err := s.dsys.RestoreOverrides(rec.Overrides); err != nil {
			return RecoveredState{}, fmt.Errorf("restore overrides: %w", err)
		}
	}
	for i, ev := range rec.Evolves {
		if err := s.dsys.ApplyEvolve(ev); err != nil {
			return RecoveredState{}, fmt.Errorf("replay WAL record %d (%v): %w", i, ev.Op, err)
		}
	}
	s.dsys.SetEvolveSink(st)
	readmitted, err := s.svc.Restore(rec)
	if err != nil {
		return RecoveredState{}, err
	}
	state := RecoveredState{
		CheckpointVersion: rec.CheckpointVersion,
		WALRecords:        rec.WALRecords,
		ResumedTickets:    len(readmitted),
		FailedTickets:     len(rec.Pending) - len(readmitted),
	}
	s.mu.Lock()
	s.store = st
	s.recovered = &state
	s.mu.Unlock()
	return state, nil
}

// AttachStore wires a store without recovery (fresh data directory): evolve
// mutations are logged and /metrics exports the WAL counters. Panics on a
// backend that is not a *core.System.
func (s *Server) AttachStore(st *storage.Store) {
	if s.dsys == nil {
		panic("server: AttachStore on a backend without a durable surface")
	}
	s.dsys.SetEvolveSink(st)
	s.mu.Lock()
	s.store = st
	s.mu.Unlock()
}

// Store returns the attached store, or nil.
func (s *Server) Store() *storage.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store
}

// Recovered returns the startup recovery report, or nil for a fresh start.
func (s *Server) Recovered() *RecoveredState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// MaybeCheckpoint writes a checkpoint if the store's record cadence says one
// is due (the daemon calls it from its housekeeping loop and at drain).
// force bypasses the cadence check. Reports whether a checkpoint was written.
func (s *Server) MaybeCheckpoint(force bool) (bool, error) {
	st := s.Store()
	if st == nil {
		return false, nil
	}
	if !force && !st.CheckpointDue() {
		return false, nil
	}
	if err := s.dsys.Checkpoint(st); err != nil {
		// A checkpoint durability failure degrades the daemon (nothing is
		// lost — the WAL still covers the state — but the durable path needs
		// attention before the log grows without bound).
		s.maybeDegrade("checkpoint", err)
		return false, err
	}
	return true, nil
}

// edgeJSON is the wire form of one edge.
type edgeJSON struct {
	Src    uint32  `json:"src"`
	Dst    uint32  `json:"dst"`
	Weight float32 `json:"weight,omitempty"`
}

func (e edgeJSON) edge() graph.Edge {
	return graph.Edge{Src: graph.VertexID(e.Src), Dst: graph.VertexID(e.Dst), Weight: e.Weight}
}

// evolveAddRequest is the POST /v1/graph/edges body. With JobID the edges
// are a private mutation for that job; without, a global update visible to
// jobs submitted afterwards.
type evolveAddRequest struct {
	Edges []edgeJSON `json:"edges"`
	JobID *int       `json:"job_id,omitempty"`
}

// evolveRemoveRequest is the DELETE /v1/graph/edges body: exactly one of
// Src, Dst or Edges selects what to remove (all edges from a source, all
// edges into a destination, or an explicit list).
type evolveRemoveRequest struct {
	Src   *uint32    `json:"src,omitempty"`
	Dst   *uint32    `json:"dst,omitempty"`
	Edges []edgeJSON `json:"edges,omitempty"`
	JobID *int       `json:"job_id,omitempty"`
}

type evolveResponse struct {
	Added   int `json:"added,omitempty"`
	Removed int `json:"removed,omitempty"`
	Version int `json:"version"`
}

func (s *Server) handleEvolveAdd(w http.ResponseWriter, r *http.Request) {
	if s.refuseWrites(w) {
		return
	}
	var req evolveAddRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid body: %v", err)
		return
	}
	if len(req.Edges) == 0 {
		s.writeError(w, http.StatusBadRequest, "missing \"edges\"")
		return
	}
	edges := make([]graph.Edge, len(req.Edges))
	for i, e := range req.Edges {
		edges[i] = e.edge()
	}
	if req.JobID != nil {
		if err := s.sys.AddEdgesFor(*req.JobID, edges); err != nil {
			s.writeEvolveError(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, evolveResponse{Added: len(edges), Version: s.sys.SnapshotVersion()})
		return
	}
	version, err := s.sys.AddEdges(edges)
	if err != nil {
		s.writeEvolveError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, evolveResponse{Added: len(edges), Version: version})
}

// writeEvolveError maps an evolve failure to HTTP: a durability failure
// (the WAL could not commit the record) degrades the daemon and answers
// 503 + Retry-After — the mutation must not be acknowledged — while
// anything else is a caller mistake (400).
//
// The 503 is complete: by the time core.System returns the durability error
// it has already rolled the installation back (see internal/core/rollback.go),
// so the refused edges are not observable anywhere — not by degraded-mode
// reads, not in checkpoints, not after restart. (Earlier versions had a
// phantom-commit window here: the mutation installed in memory before the
// commit was awaited and a failed commit left it visible until restart.)
func (s *Server) writeEvolveError(w http.ResponseWriter, err error) {
	if s.maybeDegrade("wal", err) {
		s.writeUnavailable(w, "degraded (wal): %v", err)
		return
	}
	s.writeError(w, http.StatusBadRequest, "%v", err)
}

func (s *Server) handleEvolveRemove(w http.ResponseWriter, r *http.Request) {
	if s.refuseWrites(w) {
		return
	}
	var req evolveRemoveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid body: %v", err)
		return
	}
	selectors := 0
	var pred func(graph.Edge) bool
	if req.Src != nil {
		selectors++
		src := graph.VertexID(*req.Src)
		pred = func(e graph.Edge) bool { return e.Src == src }
	}
	if req.Dst != nil {
		selectors++
		dst := graph.VertexID(*req.Dst)
		pred = func(e graph.Edge) bool { return e.Dst == dst }
	}
	if len(req.Edges) > 0 {
		selectors++
		want := make(map[graph.Edge]int, len(req.Edges))
		for _, e := range req.Edges {
			want[e.edge()]++
		}
		pred = func(e graph.Edge) bool {
			if want[e] > 0 {
				want[e]--
				return true
			}
			return false
		}
	}
	if selectors != 1 {
		s.writeError(w, http.StatusBadRequest, "exactly one of \"src\", \"dst\" or \"edges\" must be set")
		return
	}
	if req.JobID != nil {
		removed, err := s.sys.RemoveEdgesFor(*req.JobID, pred)
		if err != nil {
			s.writeEvolveError(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, evolveResponse{Removed: removed, Version: s.sys.SnapshotVersion()})
		return
	}
	version, removed, err := s.sys.RemoveEdges(pred)
	if err != nil {
		s.writeEvolveError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, evolveResponse{Removed: removed, Version: version})
}
