package core

import (
	"fmt"

	"graphm/internal/engine"
)

// Session is the engine-facing form of the Table 1 API: an engine that owns
// its own StreamEdges loop (Figure 6(b)) drives GraphM explicitly instead
// of letting System.Submit run the built-in driver. The protocol is:
//
//	sess, _ := sys.OpenSession(job)
//	for sess.BeginIteration() {        // GetActiveVertices + round join
//	    for {
//	        sp := sess.Sharing()       // Algorithm 2: blocks until a
//	        if sp == nil {             // needed partition is loaded
//	            break
//	        }
//	        sp.ProcessAll()            // Start(): stream the partition
//	                                   // in the chunk lockstep
//	        sp.Barrier()               // Barrier(): partition complete
//	    }
//	    sess.EndIteration()
//	}
//	sess.Close()
//
// Sessions and Submit-driven jobs can share one System; the controller does
// not distinguish them.
type Session struct {
	s    *System
	js   *jobState
	iter int

	inIteration bool
	closed      bool
}

// SessionOptions tunes how a session's job interacts with the sharing
// controller.
type SessionOptions struct {
	// JoinMidRound admits the job into a round already in flight instead of
	// waiting at the round barrier: the job attaches at the next partition
	// barrier and its already-passed active partitions are appended to the
	// round order (the paper's dynamic-concurrency scenario, where jobs
	// arrive at arbitrary times and join the ongoing graph stream). Jobs
	// already waiting at the round barrier take precedence: while any job
	// waits for a fresh round, joiners queue at the barrier instead of
	// extending the in-flight round. Batch drivers keep this off so every
	// round starts from a clean global table.
	JoinMidRound bool
}

// JobDriver is the session surface a streaming driver needs, satisfied by
// *Session. The admission service drives jobs through it rather than through
// *Session, so a test or benchmark harness can wrap each session (to time or
// trace its calls) without changing the service.
type JobDriver interface {
	// BeginIteration runs the program's BeforeIteration and joins the next
	// round; false means converged, detached or failed.
	BeginIteration() bool
	// Sharing returns the next shared partition to stream, nil when the
	// iteration is complete.
	Sharing() *SharedPartition
	// EndIteration commits the iteration.
	EndIteration()
	// Close deregisters the job. Idempotent.
	Close()
	// Detach asks the controller to withdraw the job at its next barrier.
	Detach()
	// Detached reports whether a Detach was honored before convergence.
	Detached() bool
	// Joined reports whether the job has reached the controller this
	// iteration (round barrier or mid-round attach).
	Joined() bool
}

// OpenJobSession is OpenSessionWith returning the driver interface — the
// form service backends implement, so a wrapping backend can hand out
// wrapped drivers.
func (s *System) OpenJobSession(j *engine.Job, opts SessionOptions) (JobDriver, error) {
	return s.OpenSessionWith(j, opts)
}

// OpenSession registers job with the sharing controller and returns its
// session. The job joins rounds at its first BeginIteration. The caller
// must eventually Close the session even on error paths; System.Wait blocks
// until all sessions are closed.
func (s *System) OpenSession(j *engine.Job) (*Session, error) {
	return s.OpenSessionWith(j, SessionOptions{})
}

// OpenSessionWith is OpenSession with explicit options.
func (s *System) OpenSessionWith(j *engine.Job, opts SessionOptions) (*Session, error) {
	j.Bind(s.g)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.register(j, opts)
}

// register enters the bound job j live but not ready: it joins rounds at
// its first BeginIteration. Caller holds s.mu.
func (s *System) register(j *engine.Job, opts SessionOptions) (*Session, error) {
	if _, dup := s.jobs[j.ID]; dup {
		return nil, fmt.Errorf("core: duplicate job ID %d", j.ID)
	}
	state := j.Prog.StateBytes()
	j.StateBase = s.mem.AllocAddr(state)
	s.mem.ReserveJobData(state)
	js := &jobState{job: j, born: s.snaps.currentVersion(),
		joinMidRound: opts.JoinMidRound}
	s.jobs[j.ID] = js
	s.live++
	s.wg.Add(1)
	return &Session{s: s, js: js}, nil
}

// BeginIteration runs the program's BeforeIteration, publishes the job's
// active partitions (GetActiveVertices) and joins the next round. It
// returns false when the job has converged or the system failed.
func (sess *Session) BeginIteration() bool {
	if sess.closed {
		return false
	}
	if !sess.js.job.Prog.BeforeIteration(sess.iter) || sess.s.Err() != nil {
		return false
	}
	if !sess.s.beginIteration(sess.js) {
		return false
	}
	sess.inIteration = true
	return true
}

// Detach asks the controller to withdraw the job from sharing: the session's
// current (possibly suspended) or next Sharing call returns nil, and
// BeginIteration returns false afterwards. Safe to call from any goroutine
// while the session is live; the unhook itself happens at one of the job's
// partition barriers, so other jobs' chunk lockstep is never disturbed. The
// driver loop must still run to its natural end (Sharing-nil, EndIteration,
// failed BeginIteration) and Close the session.
func (sess *Session) Detach() {
	s := sess.s
	s.mu.Lock()
	sess.js.detachWanted = true
	// The job could be parked on any wait list (round barrier, sharing, or
	// the open partition's windows); detaches are rare, so wake them all.
	s.broadcastAllLocked()
	s.mu.Unlock()
}

// Joined reports whether the session's job has reached the sharing
// controller at least once this iteration: it attached to the round in
// flight (JoinMidRound) or queued at the round barrier. Deterministic test
// orchestration uses it to sequence an attach fully before the triggering
// job releases the partition it is holding open — once Joined returns true,
// the job's effect on round composition is fixed.
func (sess *Session) Joined() bool {
	s := sess.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return sess.js.inRound || sess.js.ready
}

// Detached reports whether the controller honored a Detach request for this
// session's job — i.e. the job actually withdrew before converging. A
// Detach that lands after the job's last iteration never takes effect, and
// Detached stays false; callers use this to tell a cancelled job from one
// that finished naturally while the cancellation was in flight.
func (sess *Session) Detached() bool {
	s := sess.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return sess.js.detached
}

// Sharing returns the next shared partition this job must process in the
// current round, suspending the caller until it is available; nil means the
// job's iteration is complete.
func (sess *Session) Sharing() *SharedPartition {
	if sess.closed || !sess.inIteration {
		return nil
	}
	cp := sess.s.sharing(sess.js)
	if cp == nil {
		return nil
	}
	return &SharedPartition{sess: sess, cp: cp}
}

// EndIteration commits the iteration (AfterIteration + bookkeeping).
func (sess *Session) EndIteration() {
	if sess.closed || !sess.inIteration {
		return
	}
	sess.js.job.Prog.AfterIteration(sess.iter)
	sess.js.job.Met.Iterations++
	sess.iter++
	sess.js.job.Iter = sess.iter
	sess.inIteration = false
}

// Close deregisters the job and frees its chunk-apply arena: the per-chunk
// memo and scratch buffers only serve streaming, and a finished job the
// caller keeps around (a service ticket) must not pin them — nor the dead
// chunk versions the memo's keys keep reachable. Idempotent.
func (sess *Session) Close() {
	if sess.closed {
		return
	}
	sess.closed = true
	sess.s.leave(sess.js)
	sess.s.mem.ReserveJobData(-sess.js.job.Prog.StateBytes())
	sess.js.job.ReleaseArena()
	sess.js.job.Done = true
	sess.s.wg.Done()
}

// SharedPartition is one partition handed to one job by the sharing
// controller, exposing its chunks in the synchronized streaming order.
type SharedPartition struct {
	sess *Session
	cp   *curPartition
	done bool
}

// ID returns the engine partition ID.
func (sp *SharedPartition) ID() int { return sp.cp.part.ID }

// NumChunks returns the number of logical chunks in the partition.
func (sp *SharedPartition) NumChunks() int { return len(sp.cp.set.Chunks) }

// ProcessAll applies every chunk of the partition for this job (the paper's
// Start()) and returns when the job's share of the partition is fully
// streamed, or the system failed. The partition streams in two phases
// (twophase.go), a window of chunks at a time: one attendee computes every
// attendee's chunks of the window, and one pricing goroutine prices them —
// in the chunk lockstep's order under FineSync, one attendee's whole window
// after another's in Share-only. Call Barrier afterwards.
func (sp *SharedPartition) ProcessAll() {
	if sp.done {
		return
	}
	sp.done = true
	sp.sess.s.streamTwoPhase(sp.sess.js, sp.cp)
}

// Barrier marks the partition complete for this job (Table 1's Barrier()),
// letting the controller advance once every attending job arrives. It must
// be called exactly once, after ProcessAll.
func (sp *SharedPartition) Barrier() {
	sp.sess.s.partitionBarrier(sp.sess.js, sp.cp)
}
