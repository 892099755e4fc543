// Package service is the online admission layer over a GraphM instance: a
// long-running, concurrency-safe job service for the paper's
// dynamic-concurrency scenario (the Figure 1 workloads), where jobs arrive
// at arbitrary times, join the streaming round already in flight, and
// depart independently — rather than running as a fixed, pre-declared
// batch.
//
// The service wraps core.System with three pieces the batch harness lacks:
//
//   - an admission controller that opens JoinMidRound sessions, so a job
//     admitted while a round is streaming attaches at the next partition
//     barrier and shares the partition loads already in flight;
//   - bounded per-tenant FIFO queues with backpressure (Submit returns
//     ErrQueueFull instead of buffering without limit) and round-robin
//     admission across tenants, so one tenant's flood of PageRank requests
//     cannot starve another tenant's lone BFS;
//   - ticket-based lifecycle tracking (queued → admitted → streaming →
//     done) with per-job core.Stats deltas for observability.
package service

import (
	"errors"
	"fmt"
	"sync"

	"graphm/internal/core"
	"graphm/internal/engine"
)

// Backend is the streaming substrate the service admits jobs to: a
// core.System, or a wrapper around one that a test or benchmark harness
// substitutes to time or trace its calls. Everything the admission path
// needs is session opening plus the observability pair.
type Backend interface {
	// OpenJobSession registers a job and returns its streaming driver.
	OpenJobSession(j *engine.Job, opts core.SessionOptions) (core.JobDriver, error)
	// StatsSnapshot returns the controller counters.
	StatsSnapshot() core.Stats
	// Err returns the backend's first failure, if any.
	Err() error
}

// Submission errors returned by Submit.
var (
	// ErrQueueFull is the backpressure signal: the tenant's queue (or the
	// global queue bound) is at capacity. The caller should retry later or
	// shed the request.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrClosed is returned once the service has stopped accepting jobs.
	ErrClosed = errors.New("service: closed")
)

// Config tunes the admission controller.
type Config struct {
	// MaxInFlight bounds concurrently admitted jobs (default 16). Arrivals
	// beyond it queue.
	MaxInFlight int
	// MaxQueuedPerTenant bounds each tenant's FIFO (default 64); Submit
	// returns ErrQueueFull beyond it.
	MaxQueuedPerTenant int
	// MaxQueued bounds the total queue across tenants (default: 4x
	// MaxQueuedPerTenant).
	MaxQueued int
	// Seed derives per-job RNG seeds for requests that leave Seed zero.
	Seed int64
	// Clock is the time source for ticket lifecycle timestamps (queued,
	// admitted, done). Nil means core.WallClock. The replay harness injects a
	// core.VirtualClock so queue waits and runtimes are measured in simulated
	// trace time; the clock is only ever read while the replay's event loop
	// holds it at a deterministic instant.
	Clock core.Clock
	// FinishGate, when set, is called by each driver goroutine after its job
	// has fully streamed and closed its session, immediately before the
	// ticket turns terminal (and before its in-flight slot is released). The
	// replay harness parks drivers here until the virtual clock reaches the
	// job's simulated departure time, so the ticket's doneAt — and the
	// admission instant of whichever queued ticket its slot admits next —
	// land on the scheduled virtual time instead of the real streaming
	// duration. The callee must eventually return: Drain and Shutdown wait
	// for every gated driver.
	FinishGate func(*Ticket)
	// OnAdmit, when set, is called as each ticket is admitted to the
	// sharing controller — the daemon layer's hook for live SLO tracking
	// (queue-wait observations land in a rolling window the moment they
	// are known, not at job completion). Called with the service mutex
	// held: the callee must be fast and must not call back into the
	// Service.
	OnAdmit func(*Ticket)
	// OnTerminal, when set, is called once per ticket as it reaches a
	// terminal status (done, canceled, failed — including queued tickets
	// canceled before admission and tickets whose admission itself
	// failed). Same contract as OnAdmit: fast, no re-entry into the
	// Service.
	OnTerminal func(*Ticket)
	// TicketLog, when set, persists the ticket lifecycle: Submit appends a
	// durable submit record before acknowledging, and every terminal
	// transition appends a best-effort end record. Recovery re-admits
	// still-pending tickets through Restore.
	TicketLog TicketLogger
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 16
	}
	if c.MaxQueuedPerTenant <= 0 {
		c.MaxQueuedPerTenant = 64
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 4 * c.MaxQueuedPerTenant
	}
	if c.Clock == nil {
		c.Clock = core.WallClock{}
	}
	return c
}

// Snapshot is a point-in-time view of the service counters.
type Snapshot struct {
	Queued   int // tickets currently waiting
	InFlight int // tickets admitted and not yet terminal
	Tenants  int // tenants currently holding queued work

	Submitted uint64 // accepted submissions
	Rejected  uint64 // submissions refused for backpressure
	Admitted  uint64 // tickets ever admitted
	Completed uint64 // tickets that reached StatusDone
	Canceled  uint64 // tickets that reached StatusCanceled
	Failed    uint64 // tickets that reached StatusFailed

	PeakInFlight int
	PeakQueued   int
}

// Service is a long-running job-admission front end over one core.System.
// All exported methods are safe for concurrent use.
type Service struct {
	sys Backend
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond

	queues      map[string][]*Ticket
	tenantOrder []string // round-robin order, first-seen
	rr          int      // index of the tenant served last

	tickets     map[int]*Ticket
	nextID      int
	inFlight    int
	queued      int
	outstanding int // queued + in-flight, for Drain
	closed      bool

	snap Snapshot

	wg sync.WaitGroup // one entry per driver goroutine
}

// New wraps sys in an admission service. The system must be dedicated to
// the service: mixing service tickets with direct Submit/OpenSession jobs
// on the same System is supported by the controller but makes the service's
// stats deltas meaningless.
func New(sys *core.System, cfg Config) *Service {
	return NewWithBackend(sys, cfg)
}

// NewWithBackend is New over any Backend, such as a harness's wrapper
// around a core.System; every admission, ticket and stats path works
// unchanged.
func NewWithBackend(sys Backend, cfg Config) *Service {
	s := &Service{
		sys:     sys,
		cfg:     cfg.withDefaults(),
		queues:  make(map[string][]*Ticket),
		tickets: make(map[int]*Ticket),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Submit accepts a job request, returning its ticket immediately. The job
// is admitted to the sharing controller as soon as fairness and the
// in-flight bound allow — possibly before Submit returns. ErrQueueFull
// signals backpressure; ErrClosed a closed service.
func (s *Service) Submit(req Request) (*Ticket, error) {
	prog := req.Prog
	algo := req.Algo
	if prog == nil {
		p, err := NewProgram(req.Algo)
		if err != nil {
			return nil, err
		}
		prog = p
	} else if algo == "" {
		algo = prog.Name()
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if len(s.queues[tenant]) >= s.cfg.MaxQueuedPerTenant || s.queued >= s.cfg.MaxQueued {
		s.snap.Rejected++
		return nil, fmt.Errorf("%w (tenant %q: %d queued, total %d)",
			ErrQueueFull, tenant, len(s.queues[tenant]), s.queued)
	}
	s.nextID++
	seed := req.Seed
	if seed == 0 {
		seed = deriveSeed(s.cfg.Seed, s.nextID)
	}
	// The submit record (with the resolved seed) is durable before the
	// caller sees the ticket: an acked submission survives kill -9, and its
	// re-run draws the same seed.
	if s.cfg.TicketLog != nil {
		if err := s.cfg.TicketLog.LogSubmit(s.nextID, tenant, algo, seed); err != nil {
			s.nextID-- // nothing else observed the ID
			return nil, fmt.Errorf("service: ticket log: %w", err)
		}
	}
	t := newTicket(s.nextID, tenant, algo, prog, seed)
	t.queuedAt = s.cfg.Clock.Now()
	s.tickets[t.ID] = t
	if _, seen := s.queues[tenant]; !seen {
		s.tenantOrder = append(s.tenantOrder, tenant)
	}
	s.queues[tenant] = append(s.queues[tenant], t)
	s.queued++
	s.outstanding++
	s.snap.Submitted++
	if s.queued > s.snap.PeakQueued {
		s.snap.PeakQueued = s.queued
	}
	s.admitLocked()
	return t, nil
}

// admitLocked pops tickets round-robin across tenants while in-flight
// capacity is available, opening a mid-round session for each.
func (s *Service) admitLocked() {
	for s.inFlight < s.cfg.MaxInFlight {
		t := s.popNextLocked()
		if t == nil {
			return
		}
		sess, err := s.sys.OpenJobSession(t.job, core.SessionOptions{JoinMidRound: true})
		if err != nil {
			// Admission failure (e.g. duplicate job ID) is terminal for the
			// ticket, not the service.
			s.outstanding--
			s.snap.Failed++
			t.mu.Lock()
			t.status = StatusFailed
			t.err = err
			t.doneAt = s.cfg.Clock.Now()
			t.mu.Unlock()
			close(t.done)
			s.logTerminalLocked(t.ID, StatusFailed)
			if s.cfg.OnTerminal != nil {
				s.cfg.OnTerminal(t)
			}
			continue
		}
		now := s.cfg.Clock.Now()
		stats := s.sys.StatsSnapshot()
		t.mu.Lock()
		t.status = StatusAdmitted
		t.sess = sess
		t.admittedAt = now
		t.statsAtAdmit = stats
		t.mu.Unlock()
		s.inFlight++
		s.snap.Admitted++
		if s.inFlight > s.snap.PeakInFlight {
			s.snap.PeakInFlight = s.inFlight
		}
		if s.cfg.OnAdmit != nil {
			s.cfg.OnAdmit(t)
		}
		s.wg.Add(1)
		go s.drive(t)
	}
}

// popNextLocked returns the next queued ticket, rotating across tenants so
// each non-empty tenant queue is served in turn. Tenants whose queue runs
// dry are dropped from the rotation (and re-enter on their next Submit), so
// a long-running service's admission cost tracks tenants with queued work,
// not tenants ever seen.
func (s *Service) popNextLocked() *Ticket {
	n := len(s.tenantOrder)
	for i := 1; i <= n; i++ {
		idx := (s.rr + i) % n
		tenant := s.tenantOrder[idx]
		q := s.queues[tenant]
		if len(q) == 0 {
			continue
		}
		t := q[0]
		q = q[1:]
		s.queued--
		if len(q) == 0 {
			s.removeTenantLocked(tenant)
			// The element after the removed slot shifted onto idx.
			s.rr = idx - 1
		} else {
			s.queues[tenant] = q
			s.rr = idx
		}
		return t
	}
	return nil
}

// removeTenantLocked drops an empty tenant from the rotation.
func (s *Service) removeTenantLocked(tenant string) {
	delete(s.queues, tenant)
	for j, name := range s.tenantOrder {
		if name == tenant {
			s.tenantOrder = append(s.tenantOrder[:j], s.tenantOrder[j+1:]...)
			return
		}
	}
}

// drive runs one admitted job against the sharing controller: the
// StreamEdges loop of Figure 6(b) over the session API, with lifecycle
// transitions layered on. ProcessAll streams each partition two-phase under
// FineSync: one attendee computes every attendee's chunks of a window while
// a pricing goroutine prices the window's LLC accesses.
func (s *Service) drive(t *Ticket) {
	defer s.wg.Done()
	t.mu.Lock()
	sess := t.sess
	t.mu.Unlock()
	for sess.BeginIteration() {
		t.setStreaming()
		for {
			sp := sess.Sharing()
			if sp == nil {
				break
			}
			sp.ProcessAll()
			sp.Barrier()
		}
		sess.EndIteration()
	}
	sess.Close()
	// The session is fully deregistered from the sharing controller before
	// the gate: a parked driver holds only its service in-flight slot, never
	// core state, so gated tickets cannot stall other jobs' rounds.
	if s.cfg.FinishGate != nil {
		s.cfg.FinishGate(t)
	}
	s.finish(t)
}

// finish records a ticket's terminal state and admits successors.
func (s *Service) finish(t *Ticket) {
	delta := s.sys.StatsSnapshot()
	sysErr := s.sys.Err()

	s.mu.Lock()
	s.inFlight--
	s.outstanding--
	t.mu.Lock()
	final := StatusDone
	switch {
	case sysErr != nil:
		final = StatusFailed
		t.err = sysErr
	case t.cancelWanted && t.sess.Detached():
		// Only count the ticket cancelled if the detach actually interrupted
		// the job; a cancel racing natural convergence leaves valid results.
		final = StatusCanceled
	}
	t.status = final
	t.doneAt = s.cfg.Clock.Now()
	t.statsDelta = delta.Sub(t.statsAtAdmit)
	t.simNS = t.job.Met.SimTotalNS()
	t.mu.Unlock()
	close(t.done)
	switch final {
	case StatusDone:
		s.snap.Completed++
	case StatusCanceled:
		s.snap.Canceled++
	case StatusFailed:
		s.snap.Failed++
	}
	s.logTerminalLocked(t.ID, final)
	if s.cfg.OnTerminal != nil {
		s.cfg.OnTerminal(t)
	}
	s.admitLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Cancel withdraws a ticket: queued tickets are dequeued immediately;
// admitted tickets are detached from the sharing controller at their next
// partition barrier. Canceling a terminal ticket is a no-op. Unknown IDs
// are an error.
func (s *Service) Cancel(id int) error {
	s.mu.Lock()
	t, ok := s.tickets[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("service: unknown ticket %d", id)
	}
	t.mu.Lock()
	switch {
	case t.status == StatusQueued:
		s.dequeueLocked(t)
		t.status = StatusCanceled
		t.cancelWanted = true
		t.doneAt = s.cfg.Clock.Now()
		t.mu.Unlock()
		close(t.done)
		s.snap.Canceled++
		s.outstanding--
		s.logTerminalLocked(t.ID, StatusCanceled)
		if s.cfg.OnTerminal != nil {
			s.cfg.OnTerminal(t)
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		return nil
	case t.status.Terminal():
		t.mu.Unlock()
		s.mu.Unlock()
		return nil
	default:
		t.cancelWanted = true
		sess := t.sess
		t.mu.Unlock()
		s.mu.Unlock()
		sess.Detach()
		return nil
	}
}

// dequeueLocked removes a still-queued ticket from its tenant FIFO,
// dropping the tenant from the rotation if the queue runs dry.
func (s *Service) dequeueLocked(t *Ticket) {
	q := s.queues[t.Tenant]
	for i, qt := range q {
		if qt != t {
			continue
		}
		q = append(q[:i:i], q[i+1:]...)
		s.queued--
		if len(q) == 0 {
			for j, name := range s.tenantOrder {
				if name == t.Tenant {
					if s.rr >= j {
						s.rr--
					}
					break
				}
			}
			s.removeTenantLocked(t.Tenant)
		} else {
			s.queues[t.Tenant] = q
		}
		return
	}
}

// Forget drops a terminal ticket from the lookup table, bounding the
// service's memory over a long-running deployment. It reports whether the
// ticket was dropped; live tickets are never dropped.
func (s *Service) Forget(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tickets[id]
	if !ok || !t.Status().Terminal() {
		return false
	}
	delete(s.tickets, id)
	return true
}

// Ticket looks up a ticket by ID.
func (s *Service) Ticket(id int) (*Ticket, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tickets[id]
	return t, ok
}

// Snapshot returns current service counters.
func (s *Service) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.snap
	snap.Queued = s.queued
	snap.InFlight = s.inFlight
	snap.Tenants = len(s.tenantOrder)
	return snap
}

// SystemStats returns the wrapped system's counters.
func (s *Service) SystemStats() core.Stats { return s.sys.StatsSnapshot() }

// Drain stops accepting new jobs, runs every queued and in-flight job to
// completion, and returns the system's first error, if any.
func (s *Service) Drain() error {
	s.mu.Lock()
	s.closed = true
	for s.outstanding > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return s.sys.Err()
}

// Shutdown stops accepting new jobs, cancels everything still queued,
// detaches every in-flight job at its next partition barrier, and waits for
// the drivers to exit.
func (s *Service) Shutdown() {
	s.mu.Lock()
	s.closed = true
	var detach []core.JobDriver
	var terminal []*Ticket
	for _, t := range s.tickets {
		t.mu.Lock()
		switch {
		case t.status == StatusQueued:
			s.dequeueLocked(t)
			t.status = StatusCanceled
			t.cancelWanted = true
			t.doneAt = s.cfg.Clock.Now()
			close(t.done)
			s.snap.Canceled++
			s.outstanding--
			terminal = append(terminal, t)
		case !t.status.Terminal():
			t.cancelWanted = true
			detach = append(detach, t.sess)
		}
		t.mu.Unlock()
	}
	for _, t := range terminal {
		s.logTerminalLocked(t.ID, StatusCanceled)
		if s.cfg.OnTerminal != nil {
			s.cfg.OnTerminal(t)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, sess := range detach {
		sess.Detach()
	}
	s.mu.Lock()
	for s.outstanding > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
	s.wg.Wait()
}
