package shard

import (
	"fmt"
	"sync/atomic"

	"graphm/internal/core"
	"graphm/internal/engine"
)

// Session is the scatter/gather driver for one logical job across every
// shard: it satisfies core.JobDriver, so the admission service (and any
// Figure 6(b)-style driver loop) streams a sharded group exactly as it
// would a single system.
//
// The logical job's program is shared by one shadow job per shard; the
// shadow sessions are opened in GroupDriver mode, so this session alone
// runs BeforeIteration/AfterIteration and owns convergence. Each logical
// iteration waits at the group's round barrier, then gathers the shards in
// ascending order — shard-major traversal over ascending-ID placement is
// exactly the unsharded global partition order, which is what makes
// outputs bit-identical across shard counts.
type Session struct {
	g   *Group
	job *engine.Job
	// shadow[i]/sess[i] are shard i's shadow job and its GroupDriver
	// session. began[i] records whether shard i joined the current logical
	// iteration (a detach can refuse individual shards).
	shadow []*engine.Job
	sess   []*core.Session
	began  []bool

	iter        int
	cur         int // shard currently being gathered by Sharing
	inIteration bool
	closed      bool

	// admitted and detachWanted are guarded by the group's mutex: admitted
	// flips when a group round takes the session off the barrier,
	// detachWanted when Detach asks it to withdraw.
	admitted     bool
	detachWanted bool

	// joined flips once the first BeginIteration has reached the group's
	// round barrier (see Joined).
	joined atomic.Bool
}

// OpenJobSession registers j with every shard and returns its group driver.
// The logical job is bound here, once. opts.JoinMidRound is deliberately NOT
// forwarded: a group job admitted mid-stream waits at the group's round
// barrier for the next round instead of splicing into rounds already in
// flight. Mid-round splicing appends the joiner's missed partitions per
// shard, so its first-iteration partition order would depend on the shard
// count — breaking the group's bit-identity contract. Queueing is uniform
// at every shard count; the cost is admission latency of at most one
// round. The caller must Close the session even on error paths; Group.Wait
// blocks until all sessions on all shards are closed.
func (g *Group) OpenJobSession(j *engine.Job, opts core.SessionOptions) (core.JobDriver, error) {
	j.Bind(g.g)
	gs := &Session{g: g, job: j}
	// Registration is atomic with respect to round starts: a group round
	// begins its members on every shard under this mutex, so no shard ever
	// sees a registered job that is absent from the group round it forms.
	g.mu.Lock()
	defer g.mu.Unlock()
	for si, sys := range g.sys {
		// The shadow job shares the logical program (and therefore its
		// state); the seed is irrelevant because GroupDriver sessions never
		// re-Bind. Same ID on every shard: shard systems only ever see one
		// session per logical job.
		sj := engine.NewJob(j.ID, j.Prog, 0)
		sj.VertexPay = j.VertexPay
		sess, err := sys.OpenSessionWith(sj, core.SessionOptions{
			GroupDriver: true,
		})
		if err != nil {
			for _, open := range gs.sess {
				open.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", si, err)
		}
		gs.shadow = append(gs.shadow, sj)
		gs.sess = append(gs.sess, sess)
	}
	gs.began = make([]bool, len(gs.sess))
	g.live++
	return gs, nil
}

// BeginIteration runs the logical program's BeforeIteration once, then
// waits at the group's round barrier (Group.enterRound). Returns false
// when the job has converged, withdrew (detach), or the group failed.
func (s *Session) BeginIteration() bool {
	if s.closed {
		return false
	}
	if !s.job.Prog.BeforeIteration(s.iter) || s.g.Err() != nil {
		return false
	}
	return s.g.enterRound(s)
}

// beginShardsLocked joins the current group round on every shard. The
// shard begins are deferred-barrier (they publish the active set and
// return), so the group can begin every member from one goroutine. Called
// with the group's mutex held.
func (s *Session) beginShardsLocked() {
	any := false
	for i, sess := range s.sess {
		s.began[i] = sess.BeginIteration()
		if s.began[i] {
			any = true
		}
	}
	s.cur = 0
	s.inIteration = any
}

// Sharing gathers the shards in ascending order: it returns the next
// shared partition of the lowest-numbered shard that still has one, and
// nil once every shard's iteration is complete. Moving from one shard to
// the next ships the job's per-vertex state across the cluster network
// (meterHandoff).
func (s *Session) Sharing() *core.SharedPartition {
	if s.closed || !s.inIteration {
		return nil
	}
	for s.cur < len(s.sess) {
		if s.began[s.cur] {
			if sp := s.sess[s.cur].Sharing(); sp != nil {
				return sp
			}
		}
		s.cur++
		if s.cur < len(s.sess) {
			s.g.meterHandoff(s.job)
		}
	}
	return nil
}

// EndIteration ends the iteration on every joined shard, then commits the
// logical iteration exactly once (AfterIteration + Iterations++).
func (s *Session) EndIteration() {
	if s.closed || !s.inIteration {
		return
	}
	for i, sess := range s.sess {
		if s.began[i] {
			sess.EndIteration()
		}
	}
	s.job.Prog.AfterIteration(s.iter)
	s.job.Met.Iterations++
	s.iter++
	s.job.Iter = s.iter
	s.inIteration = false
}

// Close folds the shadow jobs' accumulated work and cache counters into
// the logical job — whose Met then reads like a single-system run's (plus
// the cross-shard handoff time already charged to SimIONS) — and then
// closes every shard session. The fold happens first: Group.Wait unblocks
// the moment the last shard session closes, and readers of the logical
// job's metrics synchronize through that Wait. Idempotent.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, sj := range s.shadow {
		s.job.AddMetrics(sj.Met)
		s.job.Ctr.Hits.Add(sj.Ctr.Hits.Load())
		s.job.Ctr.Misses.Add(sj.Ctr.Misses.Load())
		s.job.Ctr.Instructions.Add(sj.Ctr.Instructions.Load())
	}
	s.job.Done = true
	for _, sess := range s.sess {
		sess.Close()
	}
	s.g.leave()
}

// Detach asks every shard to withdraw the job at its next barrier, and the
// group's round barrier to release it if it is waiting there.
func (s *Session) Detach() {
	for _, sess := range s.sess {
		sess.Detach()
	}
	s.g.mu.Lock()
	s.detachWanted = true
	s.g.roundCond.Broadcast()
	s.g.mu.Unlock()
}

// Detached reports whether any shard honored a Detach before the job
// converged — the logical job's results are partial if any shard's are.
func (s *Session) Detached() bool {
	for _, sess := range s.sess {
		if sess.Detached() {
			return true
		}
	}
	return false
}

// Joined reports whether the job has reached the group's round barrier at
// least once. Once it returns true the job's effect on round composition
// is fixed on every shard, which is what deterministic attach sequencing
// polls for.
func (s *Session) Joined() bool { return s.joined.Load() }
