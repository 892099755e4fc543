// Package replay is the week-in-the-life soak harness: it drives the full
// Figure 2 trace (168 hours of diurnal job arrivals, mean concurrency ≈16,
// peaks above 30) through the online admission service on a virtual
// simulated clock. No wall-time sleeps anywhere — arrivals, queue waits and
// ticket lifecycles advance on simulated trace time, so a week replays in
// seconds while every job still genuinely streams the graph through
// core.System (shared loads, mid-round joins, chunk lockstep and all).
//
// # Determinism model
//
// The replay is a discrete-event simulation over the real service. A
// single-threaded event loop owns the virtual clock and processes exactly
// two event kinds in virtual-time order: trace arrivals (service.Submit)
// and scheduled departures. A job's virtual duration is drawn
// deterministically from its trace event seed (mean Config.JobHours,
// matching the ~1 h jobs the Figure 2 concurrency calibration assumes), so
// the whole admission timeline — who queues, who is admitted when, who is
// rejected for backpressure — is a pure function of (trace, Config).
//
// Real streaming runs concurrently between events, but it is invisible to
// the log: a driver that finishes streaming parks in the service's
// FinishGate (after closing its core session, so it holds no controller
// state) until the event loop releases it at the job's virtual departure
// time. Ticket timestamps are read from the injected core.VirtualClock,
// which only ever moves while the event loop is quiescent. The resulting
// ticket log is therefore byte-identical across same-seed runs, which
// TestReplayDeterministic asserts literally. Controller counters
// (SharedLoads, MidRoundJoins, Rounds...) DO depend on real goroutine
// interleaving; they are reported for observability but excluded from the
// deterministic log.
package replay

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"graphm/internal/core"
	"graphm/internal/scenario"
	"graphm/internal/service"
	"graphm/internal/trace"
)

// Config parameterizes one replay run.
type Config struct {
	// Hours is the trace length (default 168 — the paper's week).
	Hours int
	// Seed drives the trace generator and every per-job draw (tenant,
	// virtual duration). Same seed, same everything.
	Seed int64
	// Tenants is the number of fairness domains arrivals are spread across
	// (default 4).
	Tenants int
	// JobHours is the mean virtual job duration; individual jobs draw
	// uniformly from [0.5, 1.5]x. Default 2.0: the trace averages 8.5
	// arrivals/hour, and Figure 2's hourly-bucket counting makes a ~1 h job
	// appear in two buckets (bucketed mean ≈16 ⇒ instantaneous ≈8.5). The
	// replay measures *instantaneous* in-flight concurrency, so two-hour
	// jobs are what lands its mean ≈16 / peak >30 on the figure's numbers.
	JobHours float64
	// MaxInFlight caps concurrently admitted jobs (default 24: below the
	// trace's >30 peaks, so the replay exercises real queueing).
	MaxInFlight int
	// MaxQueuedPerTenant / MaxQueued bound the service queues (service
	// defaults apply when zero); tighten them to exercise ErrQueueFull
	// rejections in the log.
	MaxQueuedPerTenant int
	MaxQueued          int
	// Coverage is the per-traversal graph coverage fed to the Figure 4
	// sharing model (default 0.9).
	Coverage float64
	// NumV, NumE, Partitions size the synthetic R-MAT graph every job
	// streams (defaults 400 vertices, 3000 edges, 3x3 grid).
	NumV, NumE, Partitions int
	// LLCBytes, MemBudget size the simulated memory substrate.
	LLCBytes, MemBudget int64
	// Cores and Workers configure the underlying core.System (Workers 0 =
	// serial driver, two-phase under FineSync).
	Cores, Workers int
}

func (c Config) withDefaults() Config {
	if c.Hours <= 0 {
		c.Hours = 168
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.JobHours <= 0 {
		c.JobHours = 2.0
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 24
	}
	if c.Coverage <= 0 {
		c.Coverage = 0.9
	}
	if c.NumV <= 0 {
		c.NumV = 400
	}
	if c.NumE <= 0 {
		c.NumE = 3000
	}
	if c.Partitions <= 0 {
		c.Partitions = 3
	}
	if c.LLCBytes <= 0 {
		c.LLCBytes = 32 << 10
	}
	if c.MemBudget <= 0 {
		c.MemBudget = 64 << 20
	}
	if c.Cores <= 0 {
		c.Cores = 2
	}
	return c
}

// epoch anchors virtual hour 0. Any fixed instant works; Unix zero keeps
// timestamps readable in debugger output.
var epoch = time.Unix(0, 0).UTC()

// submission is one trace arrival resolved into a service request plus its
// deterministic virtual duration.
type submission struct {
	idx      int
	atHours  float64
	tenant   string
	algo     string
	seed     int64
	durHours float64
}

// submissions resolves the trace into arrival events. All randomness comes
// from per-event RNGs seeded by the trace event seed, so the schedule is a
// pure function of (trace, cfg).
func submissions(tr *trace.Trace, cfg Config) []submission {
	subs := make([]submission, len(tr.Events))
	for i, e := range tr.Events {
		rng := rand.New(rand.NewSource(e.Seed))
		subs[i] = submission{
			idx:      i,
			atHours:  e.AtHour,
			tenant:   fmt.Sprintf("t%02d", rng.Intn(cfg.Tenants)),
			algo:     e.Algo,
			seed:     e.Seed,
			durHours: cfg.JobHours * (0.5 + rng.Float64()),
		}
	}
	return subs
}

// departure is a scheduled virtual job completion.
type departure struct {
	atHours float64
	ticket  int
	seq     int // admission order, the deterministic tie-break
}

type depHeap []departure

func (h depHeap) Len() int { return len(h) }
func (h depHeap) Less(i, j int) bool {
	if h[i].atHours != h[j].atHours {
		return h[i].atHours < h[j].atHours
	}
	return h[i].seq < h[j].seq
}
func (h depHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *depHeap) Push(x any)   { *h = append(*h, x.(departure)) }
func (h *depHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// gate parks one driver goroutine between "finished streaming" and
// "virtually departed".
type gate struct {
	entered  chan struct{}
	release  chan struct{}
	released bool // release closed; guarded by run.mu
}

// tracked pairs a live ticket with its submission.
type tracked struct {
	tk        *service.Ticket
	sub       submission
	scheduled bool
	// admitAt/doneAt are virtual hours, filled as the lifecycle progresses.
	admitAt, doneAt float64
}

type run struct {
	cfg   Config
	clock *core.VirtualClock
	svc   *service.Service

	mu      sync.Mutex
	gates   map[int]*gate
	aborted bool

	order []*tracked // submission order (all accepted tickets, for the report)
	// unscheduled is the submission-ordered subset still awaiting admission;
	// scheduleAdmissions scans only this (queue depth, not total history).
	unscheduled []*tracked
	byID        map[int]*tracked
	seq         int

	log []string
	rep *Report
}

// gateFor lazily creates the gate for a ticket ID. Lazy because the driver
// goroutine can reach FinishGate before the event loop has seen the ticket.
func (r *run) gateFor(id int) *gate {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gates[id]
	if !ok {
		g = &gate{entered: make(chan struct{}), release: make(chan struct{})}
		r.gates[id] = g
	}
	return g
}

func (r *run) finishGate(t *service.Ticket) {
	g := r.gateFor(t.ID)
	r.mu.Lock()
	aborted := r.aborted
	r.mu.Unlock()
	close(g.entered)
	if aborted {
		// The event loop bailed out: nobody will schedule this driver's
		// virtual departure, so it must not park.
		return
	}
	<-g.release
}

// releaseGate opens a gate exactly once.
func (r *run) releaseGate(g *gate) {
	r.mu.Lock()
	if !g.released {
		g.released = true
		close(g.release)
	}
	r.mu.Unlock()
}

// abort unblocks every parked (and future) driver after an event-loop
// failure, so the service can drain instead of stranding its in-flight
// goroutines (and the whole System) for the process lifetime — the bench
// cap sweep runs several replays per process.
func (r *run) abort() {
	r.mu.Lock()
	r.aborted = true
	gates := make([]*gate, 0, len(r.gates))
	for _, g := range r.gates {
		gates = append(gates, g)
	}
	r.mu.Unlock()
	for _, g := range gates {
		r.releaseGate(g)
	}
	_ = r.svc.Drain()
}

func (r *run) logf(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf(format, args...))
}

func (r *run) hoursNow() float64 {
	return r.clock.Now().Sub(epoch).Hours()
}

// Run replays the trace through a fresh service instance and returns the
// aggregated report. The ticket log in the report is byte-identical across
// runs with the same Config.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	env, _, err := scenario.GenEnv("replay", cfg.NumV, cfg.NumE, cfg.Partitions, cfg.Seed, cfg.LLCBytes, cfg.MemBudget)
	if err != nil {
		return nil, err
	}
	ccfg := core.DefaultConfig(cfg.LLCBytes)
	ccfg.Cores = cfg.Cores
	ccfg.Workers = cfg.Workers
	sys, err := core.NewSystem(env.Layout, env.Mem, env.Cache, ccfg)
	if err != nil {
		return nil, err
	}
	r := &run{
		cfg:   cfg,
		clock: core.NewVirtualClock(epoch),
		gates: make(map[int]*gate),
		byID:  make(map[int]*tracked),
		rep:   newReport(cfg),
	}
	r.svc = service.New(sys, service.Config{
		MaxInFlight:        cfg.MaxInFlight,
		MaxQueuedPerTenant: cfg.MaxQueuedPerTenant,
		MaxQueued:          cfg.MaxQueued,
		Seed:               cfg.Seed,
		Clock:              r.clock,
		FinishGate:         r.finishGate,
	})

	start := time.Now()
	tr := trace.GenerateRand(rand.New(rand.NewSource(cfg.Seed)), cfg.Hours)
	subs := submissions(tr, cfg)

	var deps depHeap
	ai := 0
	for ai < len(subs) || deps.Len() > 0 {
		// Next event: the earlier of the next arrival and the next scheduled
		// departure; departures win ties so a freed slot is available to an
		// arrival at the same instant.
		depNext := deps.Len() > 0
		var at float64
		if depNext {
			at = deps[0].atHours
		}
		if ai < len(subs) && (!depNext || subs[ai].atHours < at) {
			at = subs[ai].atHours
			depNext = false
		}
		r.clock.Set(epoch.Add(time.Duration(at * float64(time.Hour))))
		if depNext {
			d := heap.Pop(&deps).(departure)
			if err := r.depart(d); err != nil {
				r.abort()
				return nil, err
			}
		} else {
			r.submit(subs[ai])
			ai++
		}
		// Any admissions triggered by this event happened synchronously at
		// the current virtual instant: schedule their departures now, before
		// the clock can move.
		r.scheduleAdmissions(&deps)
	}
	if err := r.svc.Drain(); err != nil {
		return nil, err
	}
	r.rep.Wall = time.Since(start)
	r.finishReport(tr)
	return r.rep, nil
}

// submit plays one arrival into the service.
func (r *run) submit(s submission) {
	now := r.hoursNow()
	tk, err := r.svc.Submit(service.Request{Tenant: s.tenant, Algo: s.algo, Seed: s.seed})
	ts := r.rep.tenant(s.tenant)
	ts.Submitted++
	r.rep.Submitted++
	if err != nil {
		if errors.Is(err, service.ErrQueueFull) {
			ts.Rejected++
			r.rep.Rejected++
			r.logf("%09.4fh reject id=---- tenant=%s algo=%-8s", now, s.tenant, s.algo)
			return
		}
		// Anything else is a harness bug, not backpressure; surface it
		// loudly in the log and the failure counters.
		ts.Failed++
		r.rep.Failed++
		r.logf("%09.4fh error  tenant=%s algo=%-8s err=%v", now, s.tenant, s.algo, err)
		return
	}
	t := &tracked{tk: tk, sub: s}
	r.order = append(r.order, t)
	r.unscheduled = append(r.unscheduled, t)
	r.byID[tk.ID] = t
	r.logf("%09.4fh submit id=%04d tenant=%s algo=%-8s dur=%.4fh", now, tk.ID, s.tenant, s.algo, s.durHours)
}

// depart releases one gated driver at its scheduled virtual departure time
// and waits for the service to finish the ticket (and admit successors)
// while the clock is frozen at that instant.
func (r *run) depart(d departure) error {
	t := r.byID[d.ticket]
	g := r.gateFor(d.ticket)
	// The driver may still be streaming in real time; its virtual departure
	// cannot happen before the work it stands for is actually done.
	<-g.entered
	r.releaseGate(g)
	st := t.tk.Wait()
	// Synchronization barrier: finish() updates counters and admits
	// successors under the service mutex before releasing it; Snapshot
	// serializes after that, so scheduleAdmissions sees every admission
	// this departure caused.
	_ = r.svc.Snapshot()
	t.doneAt = r.hoursNow()
	switch st {
	case service.StatusDone:
		r.rep.Completed++
		r.rep.tenant(t.sub.tenant).Completed++
	default:
		r.rep.Failed++
		r.rep.tenant(t.sub.tenant).Failed++
	}
	r.logf("%09.4fh %-6s id=%04d tenant=%s algo=%-8s wait=%.4fh run=%.4fh",
		t.doneAt, st, t.tk.ID, t.sub.tenant, t.sub.algo,
		t.tk.QueueWait().Hours(), t.tk.Runtime().Hours())
	if err := t.tk.Err(); err != nil {
		return fmt.Errorf("replay: ticket %d failed: %w", t.tk.ID, err)
	}
	return nil
}

// scheduleAdmissions scans the still-queued tickets for ones the service
// has admitted since the last event and schedules their virtual departures.
// The scan walks the submission-ordered unscheduled list (so log order is
// deterministic) and retains only the tickets that stayed queued.
func (r *run) scheduleAdmissions(deps *depHeap) {
	now := r.hoursNow()
	still := r.unscheduled[:0]
	for _, t := range r.unscheduled {
		st := t.tk.Status()
		if st == service.StatusQueued {
			still = append(still, t)
			continue
		}
		t.scheduled = true
		if st == service.StatusFailed {
			// Admission failed terminally (no driver, no gate).
			r.rep.Failed++
			r.rep.tenant(t.sub.tenant).Failed++
			r.logf("%09.4fh failed id=%04d tenant=%s algo=%-8s", now, t.tk.ID, t.sub.tenant, t.sub.algo)
			continue
		}
		t.admitAt = now
		r.rep.Admitted++
		r.rep.tenant(t.sub.tenant).Admitted++
		r.seq++
		heap.Push(deps, departure{atHours: now + t.sub.durHours, ticket: t.tk.ID, seq: r.seq})
		r.logf("%09.4fh admit  id=%04d tenant=%s algo=%-8s wait=%.4fh",
			now, t.tk.ID, t.sub.tenant, t.sub.algo, t.tk.QueueWait().Hours())
	}
	r.unscheduled = still
}
