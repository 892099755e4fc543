// Package scenario is a deterministic scenario harness for GraphM's dynamic
// concurrency: scripted attach / detach / graph-mutation timelines replayed
// against a core.System, with invariant checks strong enough to compare runs
// bit for bit. The chunk-granularity and accounting-model oracles and the
// differential fuzzer drive it, and it turns "jobs come and go while the
// stream is hot" into a reproducible test.
//
// # Determinism model
//
// Real time never triggers anything. Every event is anchored to a partition
// barrier of a specific job: it fires after that job finishes streaming its
// AfterBarriers-th partition but *before* the job declares the barrier. At
// that instant the triggering job still holds the partition open — the
// sharing controller cannot advance the stream, rounds cannot turn over, and
// the round order is frozen — so the event's effect on round composition is
// a pure function of the script, not of goroutine scheduling. Attaches
// additionally block the triggering job until the new session has joined the
// controller (Session.Joined), pinning the order of admission.
//
// Four rules keep a script's work and outputs fully deterministic:
//
//   - Fire events at a barrier that is not the last partition of the
//     triggering job's round when other jobs have heterogeneous active
//     sets; with all-partitions-active programs (PageRank, first-iteration
//     WCC) any barrier before the round's final partition is safe, because
//     no co-attending job can be at its iteration boundary.
//   - Give causally ordered events distinct anchors (different barriers of
//     one job, or an anchor on a job attached by an earlier event).
//   - For bit-exact floating-point outputs, keep round orders independent
//     of exact round composition: all-active programs plus at most one
//     frontier program give every round a two-class Formula (5) priority
//     structure whose ranking does not depend on how many jobs a round
//     counted at formation, so each job streams partitions in the same
//     order however the round boundary raced.
//   - Aim MutatePrivate events only at jobs alive when the event fires
//     (the trigger or any co-running job). No job resolves a chunk while
//     an event fires: the owner of each of a partition's windows resolves
//     every attendee's snapshot while it collects the window, the
//     trigger's ProcessAll returns only once its last window is priced,
//     and no partition opens while the trigger holds its partition before
//     Barrier. So every job's next resolve is strictly ordered after the
//     install.
//
// Under those rules the schedule-independent work counters
// (engine.Metrics.Work) and the algorithm outputs are identical across
// runs and across chunk labellings (Formula (1) sized for different core
// counts) — which is exactly what CheckWorkEqual and CheckOutputsEqual
// assert. Controller-level counters (Rounds, MidRoundJoins, SharedLoads,
// Suspensions, Resumes) are NOT part of the deterministic contract: a
// JoinMidRound job reaching its iteration boundary races the next round's
// formation — it either queues into the forming round or re-attaches
// mid-round a moment later — which moves those counters without moving any
// work, and a job counts a suspension whenever its goroutine reaches
// sharing before the partition it needs opens. (Once the round's last
// partition is open a joiner always queues, so an attendee of that
// partition ending its iteration first no longer re-attaches.)
package scenario

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"graphm/internal/algorithms"
	"graphm/internal/core"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/gridgraph"
	"graphm/internal/memsim"
	"graphm/internal/storage"
)

// JobSpec describes one job in a script. New must build a fresh Program:
// programs are stateful and bound to the graph at admission.
type JobSpec struct {
	ID   int
	Seed int64
	New  func() engine.Program
}

// EventKind enumerates the scripted actions.
type EventKind int

const (
	// Attach admits Event.Job mid-round (JoinMidRound) and waits until the
	// session has joined the controller before the trigger job proceeds.
	Attach EventKind = iota
	// Detach asks the session of Event.Target to withdraw from sharing.
	Detach
	// Update installs Event.Edges as a global graph update (visible to jobs
	// attached after the event).
	Update
	// MutatePrivate installs Event.Edges as a mutation private to
	// Event.Target.
	MutatePrivate
)

func (k EventKind) String() string {
	switch k {
	case Attach:
		return "attach"
	case Detach:
		return "detach"
	case Update:
		return "update"
	case MutatePrivate:
		return "mutate"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one scripted action, anchored to a job's partition barrier.
type Event struct {
	// AfterJob and AfterBarriers anchor the event: it fires immediately
	// before AfterJob's AfterBarriers-th partition barrier (1-based,
	// cumulative across the job's iterations).
	AfterJob      int
	AfterBarriers int
	Kind          EventKind
	Job           JobSpec      // Attach
	Target        int          // Detach, MutatePrivate
	Edges         []graph.Edge // Update, MutatePrivate
}

// Script is a deterministic timeline: the initial batch plus barrier-anchored
// events.
type Script struct {
	Initial []JobSpec
	Events  []Event
}

// Env is the storage/cache substrate one run streams against. Runs mutate
// the memory pool and cache counters, so comparative runs need a fresh Env
// each (GenEnv, or rebuild around a shared Grid as the bench harness does).
type Env struct {
	Layout core.Layout
	Disk   *storage.Disk
	Mem    *storage.Memory
	Cache  *memsim.Cache
}

// GenEnv builds a self-contained environment over a seeded R-MAT graph with
// a p x p grid layout — everything a scripted run needs, deterministically.
func GenEnv(name string, numV, numE, p int, seed int64, llcBytes, memBudget int64) (Env, *graph.Graph, error) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT(name, numV, numE, seed))
	if err != nil {
		return Env{}, nil, err
	}
	disk := storage.NewDisk()
	grid, err := gridgraph.Build(g, p, disk)
	if err != nil {
		return Env{}, nil, err
	}
	cache, err := memsim.NewCache(memsim.DefaultConfig(llcBytes))
	if err != nil {
		return Env{}, nil, err
	}
	return Env{Layout: grid.AsLayout(), Disk: disk, Mem: storage.NewMemory(disk, memBudget), Cache: cache}, g, nil
}

// NonEmptyPartitions counts layout partitions holding edges. An all-active
// job attends exactly these each round, so it is the per-round barrier count
// RampScript anchors events against.
func (e Env) NonEmptyPartitions() int {
	n := 0
	for _, p := range e.Layout.Partitions() {
		if len(p.Edges) > 0 {
			n++
		}
	}
	return n
}

// JobResult captures one job's outcome.
type JobResult struct {
	Spec     JobSpec
	Prog     engine.Program
	Metrics  engine.Metrics
	Work     engine.WorkCounters
	Detached bool
	// LLCHits/LLCMisses are the job's simulated cache counters — compared by
	// CheckSimEqual between the run-length and per-edge accounting models.
	LLCHits   uint64
	LLCMisses uint64
}

// Result is one scripted run's outcome.
type Result struct {
	Jobs  map[int]*JobResult
	Stats core.Stats
	// CacheMisses/CacheHits are the cache-wide counters of the run's Env.
	CacheMisses uint64
	CacheHits   uint64

	sys *core.System
}

// runner executes one script.
type runner struct {
	sys    *core.System
	script Script

	mu       sync.Mutex
	sessions map[int]*core.Session
	progs    map[int]engine.Program
	jobs     map[int]*engine.Job
	detached map[int]bool
	events   map[int]map[int][]Event // job -> barrier -> events, removed as fired
	pending  int
	errs     []error
	done     map[int]chan struct{}
}

// Run replays the script against env under cc and returns the collected
// results once every job (initial and attached) has finished. It fails on
// malformed scripts, on system errors, and on events whose anchor was never
// reached — an unfired event means the script is not the deterministic
// timeline it claims to be.
func Run(env Env, cc core.Config, script Script) (*Result, error) {
	if err := validate(script); err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(env.Layout, env.Mem, env.Cache, cc)
	if err != nil {
		return nil, err
	}
	r := &runner{
		sys:      sys,
		script:   script,
		sessions: make(map[int]*core.Session),
		progs:    make(map[int]engine.Program),
		jobs:     make(map[int]*engine.Job),
		detached: make(map[int]bool),
		events:   make(map[int]map[int][]Event),
		done:     make(map[int]chan struct{}),
	}
	for _, e := range script.Events {
		m := r.events[e.AfterJob]
		if m == nil {
			m = make(map[int][]Event)
			r.events[e.AfterJob] = m
		}
		m[e.AfterBarriers] = append(m[e.AfterBarriers], e)
		r.pending++
	}
	// Register every initial session before any driver starts, so the first
	// round forms over the complete batch regardless of goroutine order.
	for _, spec := range script.Initial {
		if _, err := r.open(spec, core.SessionOptions{}); err != nil {
			return nil, err
		}
	}
	r.mu.Lock()
	for id := range r.sessions {
		go r.drive(id)
	}
	r.mu.Unlock()
	if err := sys.Wait(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) > 0 {
		return nil, r.errs[0]
	}
	if r.pending > 0 {
		return nil, fmt.Errorf("scenario: %d event(s) never fired — anchors unreachable: %v", r.pending, r.unfiredLocked())
	}
	res := &Result{
		Jobs:        make(map[int]*JobResult),
		Stats:       sys.StatsSnapshot(),
		CacheMisses: env.Cache.TotalMisses(),
		CacheHits:   env.Cache.TotalHits(),
		sys:         sys,
	}
	for id, j := range r.jobs {
		res.Jobs[id] = &JobResult{
			Spec:      specByID(script, id),
			Prog:      r.progs[id],
			Metrics:   j.Met,
			Work:      j.Met.Work(),
			Detached:  r.detached[id],
			LLCHits:   j.Ctr.Hits,
			LLCMisses: j.Ctr.Misses,
		}
	}
	return res, nil
}

// pinScan checks every partition buffer is unpinned in mem after a run.
func pinScan(mem *storage.Memory, parts []*core.Partition) error {
	for _, p := range parts {
		if n := mem.PinCount(p.DiskName); n != 0 {
			return fmt.Errorf("scenario: partition %s still pinned %d times after the run", p.DiskName, n)
		}
	}
	return nil
}

func validate(s Script) error {
	known := make(map[int]bool)
	for _, spec := range s.Initial {
		if spec.New == nil {
			return fmt.Errorf("scenario: initial job %d has no program factory", spec.ID)
		}
		if known[spec.ID] {
			return fmt.Errorf("scenario: duplicate job ID %d", spec.ID)
		}
		known[spec.ID] = true
	}
	for i, e := range s.Events {
		if e.AfterBarriers < 1 {
			return fmt.Errorf("scenario: event %d anchored at barrier %d (must be >= 1)", i, e.AfterBarriers)
		}
		switch e.Kind {
		case Attach:
			if e.Job.New == nil {
				return fmt.Errorf("scenario: attach event %d has no program factory", i)
			}
			if known[e.Job.ID] {
				return fmt.Errorf("scenario: attach event %d reuses job ID %d", i, e.Job.ID)
			}
			known[e.Job.ID] = true
		case Detach, MutatePrivate:
			// An unknown target would not fail at fire time (AddEdgesFor
			// accepts arbitrary job IDs, installing an override nobody ever
			// releases), so the script typo must be caught here rather than
			// surfacing later as a CheckClean leak.
			if !known[e.Target] {
				return fmt.Errorf("scenario: %s event %d targets unknown job %d", e.Kind, i, e.Target)
			}
		case Update:
		default:
			return fmt.Errorf("scenario: event %d has unknown kind %d", i, e.Kind)
		}
	}
	return nil
}

func specByID(s Script, id int) JobSpec {
	for _, spec := range s.Initial {
		if spec.ID == id {
			return spec
		}
	}
	for _, e := range s.Events {
		if e.Kind == Attach && e.Job.ID == id {
			return e.Job
		}
	}
	return JobSpec{ID: id}
}

// open registers a session for spec; caller must not hold r.mu.
func (r *runner) open(spec JobSpec, opts core.SessionOptions) (*core.Session, error) {
	prog := spec.New()
	j := engine.NewJob(spec.ID, prog, spec.Seed)
	sess, err := r.sys.OpenSessionWith(j, opts)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.sessions[spec.ID] = sess
	r.progs[spec.ID] = prog
	r.jobs[spec.ID] = j
	r.done[spec.ID] = make(chan struct{})
	r.mu.Unlock()
	return sess, nil
}

func (r *runner) fail(err error) {
	r.mu.Lock()
	r.errs = append(r.errs, err)
	r.mu.Unlock()
}

// drive is the per-job streaming loop: the Figure 6(b) driver with the
// event hook wedged into the pre-barrier window.
func (r *runner) drive(id int) {
	r.mu.Lock()
	sess := r.sessions[id]
	doneCh := r.done[id]
	r.mu.Unlock()
	defer close(doneCh)
	defer sess.Close()
	barriers := 0
	for sess.BeginIteration() {
		for {
			sp := sess.Sharing()
			if sp == nil {
				break
			}
			sp.ProcessAll()
			barriers++
			// The partition is still held open: fire this barrier's events
			// while the controller is frozen.
			r.fire(id, barriers)
			sp.Barrier()
		}
		sess.EndIteration()
	}
	r.mu.Lock()
	r.detached[id] = sess.Detached()
	r.mu.Unlock()
}

// fire runs the events anchored at (job id, barrier n), in script order.
func (r *runner) fire(id, n int) {
	r.mu.Lock()
	evs := r.events[id][n]
	delete(r.events[id], n)
	r.pending -= len(evs)
	r.mu.Unlock()
	for _, e := range evs {
		switch e.Kind {
		case Attach:
			sess, err := r.open(e.Job, core.SessionOptions{JoinMidRound: true})
			if err != nil {
				r.fail(fmt.Errorf("scenario: attaching job %d: %w", e.Job.ID, err))
				continue
			}
			r.mu.Lock()
			attachedDone := r.done[e.Job.ID]
			r.mu.Unlock()
			go r.drive(e.Job.ID)
			// Block the trigger job until the attach has fully landed, so
			// admission order is the script's order.
			for !sess.Joined() && r.sys.Err() == nil {
				select {
				case <-attachedDone:
				default:
					runtime.Gosched()
					continue
				}
				break
			}
		case Detach:
			r.mu.Lock()
			sess := r.sessions[e.Target]
			r.mu.Unlock()
			if sess == nil {
				r.fail(fmt.Errorf("scenario: detach of unknown job %d", e.Target))
				continue
			}
			sess.Detach()
		case Update:
			if _, err := r.sys.AddEdges(e.Edges); err != nil {
				r.fail(fmt.Errorf("scenario: update event: %w", err))
			}
		case MutatePrivate:
			if err := r.sys.AddEdgesFor(e.Target, e.Edges); err != nil {
				r.fail(fmt.Errorf("scenario: mutate event for job %d: %w", e.Target, err))
			}
		}
	}
}

func (r *runner) unfiredLocked() []string {
	var out []string
	for id, m := range r.events {
		for n, evs := range m {
			out = append(out, fmt.Sprintf("job %d barrier %d (%d event(s))", id, n, len(evs)))
		}
	}
	sort.Strings(out)
	return out
}

// OverrideChunks reports copy-on-write chunks still live in the system after
// the run — must be zero once every job has left.
func (r *Result) OverrideChunks() int { return r.sys.OverrideChunks() }

// CheckClean verifies the run left no residue: every partition buffer
// unpinned, no leaked snapshot overrides.
func CheckClean(env Env, res *Result) error {
	if err := pinScan(env.Mem, env.Layout.Partitions()); err != nil {
		return err
	}
	if n := res.OverrideChunks(); n != 0 {
		return fmt.Errorf("scenario: %d override chunks leaked past job exit", n)
	}
	return nil
}

// CheckWorkEqual asserts two runs of the same script did identical
// schedule-independent work, job by job. Detached jobs are compared only on
// the Detached flag itself: how far a cancellation got before the controller
// honored it depends on the round-boundary race (a JoinMidRound job's next
// iteration either catches the forming round or re-attaches a beat later),
// so a withdrawn job's partial work is inherently run-dependent — the
// invariant is that the withdrawal is clean (CheckClean) and the survivors
// are untouched.
func CheckWorkEqual(a, b *Result) error {
	if len(a.Jobs) != len(b.Jobs) {
		return fmt.Errorf("scenario: job counts differ: %d vs %d", len(a.Jobs), len(b.Jobs))
	}
	for id, ja := range a.Jobs {
		jb, ok := b.Jobs[id]
		if !ok {
			return fmt.Errorf("scenario: job %d missing from second run", id)
		}
		if ja.Detached != jb.Detached {
			return fmt.Errorf("scenario: job %d detached=%v vs %v", id, ja.Detached, jb.Detached)
		}
		if ja.Detached {
			continue
		}
		if ja.Work != jb.Work {
			return fmt.Errorf("scenario: job %d work differs: %+v vs %+v", id, ja.Work, jb.Work)
		}
	}
	return nil
}

// CheckSimEqual asserts two runs did identical simulated LLC work: equal
// cache-wide hit and miss totals, and equal per-job LLC counters and
// simulated times for every non-detached job. This is the equivalence proof
// between the run-length accounting hot path (engine.Job.ApplyChunk) and
// the per-edge reference model (core.Config.PerEdgeSim): with a
// deterministic access schedule — one job, or any script whose round
// composition is schedule-independent — the two models must count every
// hit and miss identically. Unlike CheckWorkEqual this is intentionally
// stronger than the cross-schedule contract (LLC counters DO shift when
// the round composition does, as when a JoinMidRound job races the next
// round's formation), so only compare runs that used the same schedule.
func CheckSimEqual(a, b *Result) error {
	if a.CacheHits != b.CacheHits || a.CacheMisses != b.CacheMisses {
		return fmt.Errorf("scenario: cache-wide LLC counters differ: %d hits/%d misses vs %d/%d",
			a.CacheHits, a.CacheMisses, b.CacheHits, b.CacheMisses)
	}
	for id, ja := range a.Jobs {
		jb, ok := b.Jobs[id]
		if !ok {
			return fmt.Errorf("scenario: job %d missing from second run", id)
		}
		if ja.Detached || jb.Detached {
			continue
		}
		if ja.LLCHits != jb.LLCHits || ja.LLCMisses != jb.LLCMisses {
			return fmt.Errorf("scenario: job %d LLC counters differ: %d hits/%d misses vs %d/%d",
				id, ja.LLCHits, ja.LLCMisses, jb.LLCHits, jb.LLCMisses)
		}
		if ja.Metrics.SimMemNS != jb.Metrics.SimMemNS || ja.Metrics.SimComputeNS != jb.Metrics.SimComputeNS {
			return fmt.Errorf("scenario: job %d simulated time differs: mem %d vs %d, compute %d vs %d",
				id, ja.Metrics.SimMemNS, jb.Metrics.SimMemNS, ja.Metrics.SimComputeNS, jb.Metrics.SimComputeNS)
		}
	}
	return nil
}

// CheckOutputsEqual asserts bit-identical algorithm outputs between two runs
// of the same script, for the program types whose results are comparable.
// Unknown program types are an error: silent skips would make the check
// vacuously green. Detached jobs are skipped for the same reason
// CheckWorkEqual skips their counters — a withdrawn job's partial state is
// not schedule-independent.
func CheckOutputsEqual(a, b *Result) error {
	for id, ja := range a.Jobs {
		jb, ok := b.Jobs[id]
		if !ok {
			return fmt.Errorf("scenario: job %d missing from second run", id)
		}
		if ja.Detached || jb.Detached {
			continue
		}
		if err := outputsEqual(ja.Prog, jb.Prog); err != nil {
			return fmt.Errorf("scenario: job %d outputs differ: %w", id, err)
		}
	}
	return nil
}

// vertexSliceEqual compares one per-vertex output slice element-wise.
// Floating-point outputs go through it too: the contract is bit-identity,
// not tolerance, because the batched and per-edge paths must perform the
// same float operations in the same order.
func vertexSliceEqual[T comparable](what string, a, b []T) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s lengths differ: %d vs %d", what, len(a), len(b))
	}
	for v := range a {
		if a[v] != b[v] {
			return fmt.Errorf("%s[%d]: %v vs %v (not bit-identical)", what, v, a[v], b[v])
		}
	}
	return nil
}

func outputsEqual(a, b engine.Program) error {
	switch pa := a.(type) {
	case *algorithms.PageRank:
		pb, ok := b.(*algorithms.PageRank)
		if !ok {
			return fmt.Errorf("program types differ: %T vs %T", a, b)
		}
		return vertexSliceEqual("rank", pa.Ranks(), pb.Ranks())
	case *algorithms.PersonalizedPageRank:
		pb, ok := b.(*algorithms.PersonalizedPageRank)
		if !ok {
			return fmt.Errorf("program types differ: %T vs %T", a, b)
		}
		return vertexSliceEqual("ppr rank", pa.Ranks(), pb.Ranks())
	case *algorithms.WCC:
		pb, ok := b.(*algorithms.WCC)
		if !ok {
			return fmt.Errorf("program types differ: %T vs %T", a, b)
		}
		return vertexSliceEqual("label", pa.Labels(), pb.Labels())
	case *algorithms.LabelPropagation:
		pb, ok := b.(*algorithms.LabelPropagation)
		if !ok {
			return fmt.Errorf("program types differ: %T vs %T", a, b)
		}
		return vertexSliceEqual("label", pa.Labels(), pb.Labels())
	case *algorithms.BFS:
		pb, ok := b.(*algorithms.BFS)
		if !ok {
			return fmt.Errorf("program types differ: %T vs %T", a, b)
		}
		return vertexSliceEqual("dist", pa.Dist(), pb.Dist())
	case *algorithms.SSSP:
		pb, ok := b.(*algorithms.SSSP)
		if !ok {
			return fmt.Errorf("program types differ: %T vs %T", a, b)
		}
		return vertexSliceEqual("dist", pa.Dist(), pb.Dist())
	case *algorithms.KCore:
		pb, ok := b.(*algorithms.KCore)
		if !ok {
			return fmt.Errorf("program types differ: %T vs %T", a, b)
		}
		if pa.CoreSize() != pb.CoreSize() {
			return fmt.Errorf("core sizes differ: %d vs %d", pa.CoreSize(), pb.CoreSize())
		}
		return vertexSliceEqual("removed", pa.Removed(), pb.Removed())
	default:
		return fmt.Errorf("no output comparison for program type %T", a)
	}
}
