package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"graphm/internal/chunk"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/memsim"
	"graphm/internal/storage"
)

// Config tunes a GraphM instance.
type Config struct {
	// Cores is N of Formula (1) and the divisor of compute and memory time
	// on the simulated clock. Zero resolves to runtime.GOMAXPROCS(0);
	// negative values are rejected by NewSystem.
	Cores int
	// Workers must be 0. Every partition streams on the calling job's
	// goroutine: under FineSync the last Session.ProcessAll caller to reach
	// a window of a partition's chunks computes every attendee's chunks of
	// it, while one pricing goroutine prices each collected chunk's LLC
	// accesses in the lockstep order (the chunk's Formula (4) leader first,
	// then ascending job ID; every attendee's scan of the chunk before any
	// state access), so every simulated number is independent of goroutine
	// interleaving. The field remains for callers that set it explicitly;
	// NewSystem rejects any other value.
	Workers int
	// LLCBytes is C_LLC of Formula (1) — the simulated LLC capacity.
	LLCBytes int64
	// Reserved is r of Formula (1).
	Reserved int64
	// VertexPay is U_v — per-vertex job-specific bytes.
	VertexPay int64
	// AdaptiveChunking re-evaluates Formula (1) at partition barriers with
	// N = the number of jobs about to share the partition being opened,
	// re-labelling the partition (Algorithm 1) when the target chunk size
	// has drifted beyond RelabelFactor from the size its current labelling
	// assumed. Off by default: the figure experiments run the paper's
	// static, NewSystem-time sizing.
	AdaptiveChunking bool
	// RelabelFactor is the adaptive-chunking hysteresis threshold: a
	// partition is re-labelled only when target >= factor*current or
	// target*factor <= current, so attendance jitter of less than factor-x
	// never churns chunk tables. Zero resolves to 2; values below 1 are
	// rejected by NewSystem.
	RelabelFactor float64
	// PerEdgeSim routes chunk application through the reference per-edge LLC
	// accounting model (engine.Job.OpenChunk with perEdge: one Cache.Touch per
	// simulated access) instead of the batched run-length hot path. The two
	// models are observably identical — the scenario harness's CheckSimEqual
	// invariant proves it — so this exists for verification and debugging,
	// not production streaming.
	PerEdgeSim bool
	// FineSync enables the chunk-level synchronization of Section 3.4;
	// disabling it still shares buffers but prices each attendee's window
	// of a partition's chunks on its own, one job after another, with no
	// leader pulling a chunk in for the others (the ablation of the
	// Share-only configuration).
	FineSync bool
	// Scheduler enables the Section 4 loading-order strategy (Formula 5);
	// disabling it reproduces GridGraph-M-without of Figure 18.
	Scheduler bool
	// Cost prices counted work for the simulated-time model.
	Cost engine.CostModel
	// LoadHook, when set, is called whenever a partition is loaded from
	// disk into the shared buffer and returns extra simulated access
	// nanoseconds charged to each attending job. Distributed substrates use
	// it to price network streaming (Chaos) once per shared load.
	LoadHook func(diskBytes, attendees int) uint64
}

// DefaultConfig returns the configuration used throughout the benchmarks.
func DefaultConfig(llcBytes int64) Config {
	return Config{
		Cores:     4,
		LLCBytes:  llcBytes,
		Reserved:  llcBytes / 8,
		VertexPay: 8,
		FineSync:  true,
		Scheduler: true,
		Cost:      engine.DefaultCostModel(),
	}
}

// Stats aggregates system-wide counters exposed for the evaluation harness.
type Stats struct {
	ChunkBytes    int64
	NumChunks     int
	Rounds        int
	Suspensions   uint64 // jobs suspended waiting for a partition they need
	Resumes       uint64
	SharedLoads   uint64 // partition loads served to more than one job
	MetadataBytes int64  // chunk table overhead (Table 3 discussion)
	// MidRoundJoins counts iteration joins into a round already in flight;
	// a long-running JoinMidRound job counts once per attaching iteration,
	// not once per admission.
	MidRoundJoins uint64
	Detaches      uint64 // jobs that withdrew from sharing before converging
	// Prefetches and PrefetchHits are always 0: partitions load
	// synchronously when they open. They remain for readers that report a
	// prefetch hit ratio.
	Prefetches   uint64
	PrefetchHits uint64
	// Relabels counts adaptive chunk re-labellings: partition-barrier
	// re-evaluations of Formula (1) whose target size drifted beyond the
	// hysteresis threshold and rewrote the partition's chunk tables.
	// RelabelSkips counts re-evaluations whose drift stayed under the
	// threshold (the hysteresis holding the line). Both zero unless
	// Config.AdaptiveChunking is on.
	Relabels     uint64
	RelabelSkips uint64
}

// Sub returns the counter deltas accumulated between old and s. Sizing
// fields that describe the graph rather than accumulate (ChunkBytes,
// NumChunks, MetadataBytes) are carried over unchanged.
func (s Stats) Sub(old Stats) Stats {
	return Stats{
		ChunkBytes:    s.ChunkBytes,
		NumChunks:     s.NumChunks,
		MetadataBytes: s.MetadataBytes,
		Rounds:        s.Rounds - old.Rounds,
		Suspensions:   s.Suspensions - old.Suspensions,
		Resumes:       s.Resumes - old.Resumes,
		SharedLoads:   s.SharedLoads - old.SharedLoads,
		MidRoundJoins: s.MidRoundJoins - old.MidRoundJoins,
		Detaches:      s.Detaches - old.Detaches,
		Relabels:      s.Relabels - old.Relabels,
		RelabelSkips:  s.RelabelSkips - old.RelabelSkips,
	}
}

// System is one GraphM instance bound to an engine layout. It is the
// "GraphM Architecture" box of Figure 5: graph preprocessor (NewSystem),
// graph sharing controller (sharing/advancePartition), and synchronization
// manager (the two-phase chunk lockstep with the profiling phase).
type System struct {
	cfg    Config
	layout Layout
	g      *graph.Graph
	mem    *storage.Memory
	cache  *memsim.Cache
	cost   engine.CostModel

	parts    []*Partition
	partByID map[int]*Partition
	// sets and chunkSize hold each partition's current labelling and chunk
	// size. Static configurations write them once at NewSystem; adaptive
	// chunking rewrites them at partition barriers, so every read outside
	// NewSystem must hold mu (streaming passes instead capture the Set
	// pointer when the partition opens — Sets are immutable once built).
	sets      map[int]*chunk.Set
	chunkSize map[int]int64
	// relabelFactor is cfg.RelabelFactor resolved (0 -> 2).
	relabelFactor float64

	snaps *snapshotStore

	// cores is cfg.Cores resolved (0 -> runtime.GOMAXPROCS(0)).
	cores int
	// window is the two-phase streaming window in chunks: twoPhaseWindow,
	// which tests shrink to stream a partition in many windows.
	window int

	mu sync.Mutex
	// Wakeups are split by concern so a window's completion never wakes
	// bystanders: roundCond serves round-lifecycle waiters (jobs queued at
	// the round barrier in beginIteration, jobs suspended in sharing until a
	// partition they need opens), and each curPartition carries its own
	// cond for its attendees' windows. Both share mu.
	roundCond *sync.Cond
	err       error

	jobs       map[int]*jobState
	live       int
	readyCount int
	round      int

	roundActive bool
	order       []int
	pos         int
	cur         *curPartition

	// evolveSink, when set, receives one WAL record per evolve operation;
	// evolveMu serializes whole evolve operations (multi-partition scans
	// included) so WAL record order equals application order. Lock order:
	// evolveMu before mu; the streaming hot path never touches evolveMu.
	evolveSink storage.EvolveSink
	evolveMu   sync.Mutex
	// evolveTxns tracks logged evolve ops from append to commit resolution,
	// in installation order; failed commits unwind from the tail (see
	// rollback.go). evolveCond (on mu) wakes Checkpoint once the list drains.
	evolveTxns []*evolveTxn
	evolveCond *sync.Cond

	sharedTE float64 // T(E), profiled once per graph (Section 3.4.2)

	// clock is the simulated time in ns, as the bench's MakespanSec prices
	// it (loads' disk time, windows' SimNS over cores). arrivals are the
	// jobs Run has yet to admit, in admission order (admitDueLocked).
	clock    uint64
	arrivals []arrival

	stats Stats
	wg    sync.WaitGroup
}

// arrival is a job Run admits once the clock reaches at.
type arrival struct {
	at  uint64
	job *engine.Job
}

// jobState is the controller's view of one running job.
type jobState struct {
	job  *engine.Job
	born int // snapshot version at submission (Section 3.3.2)

	// joinMidRound lets the job attach to a round already in flight instead
	// of waiting at the round barrier (SessionOptions.JoinMidRound).
	joinMidRound bool
	// detachWanted asks the job to withdraw from sharing; the job's next
	// sharing() call (or its current suspended one) unhooks it from the
	// controller and returns nil. detached records that the unhook ran.
	detachWanted bool
	detached     bool

	ready bool
	// inRound marks that the job participates in the round in flight; a job
	// that finished its iteration early (and may already have republished
	// next-iteration active partitions at the barrier) must not be picked up
	// as an attendee of the current round's remaining partitions.
	inRound   bool
	active    map[int]bool // partition IDs active this round
	processed map[int]bool // partitions completed this round

	prof      profiler
	curSample profSample
	// collected is the open partition whose chunks the job declared inside
	// ProcessAll for its windows' owners to collect and price;
	// the last window's owner also runs the job's profiling-phase
	// observation, so the job's own Barrier skips it and clears the field.
	collected *curPartition
}

// curPartition is the partition currently being streamed by the sharing
// controller, with the window state of two-phase streaming.
type curPartition struct {
	part    *Partition
	set     *chunk.Set
	buf     *storage.Buffer
	attend  []*jobState
	pending map[int]bool // jobs that have not yet picked the partition up

	// cond (on System.mu) is the partition's private wait list: ProcessAll
	// callers parked in awaitWindow. Only this partition's window events
	// (and system failure / detach rewrites) broadcast it.
	cond *sync.Cond

	remaining int // jobs that have not finished the partition

	// Two-phase streaming (see streamTwoPhase), which collects
	// and prices the partition in windows of chunks. declared counts
	// ProcessAll callers that have reached the current window. Once it
	// equals the attendance, the caller that sees it becomes the window's
	// single owner (owned), which collects and prices it; priced, the count
	// of windows priced, releases the other callers.
	declared int
	owned    bool
	priced   int
}

// NewSystem is GraphM's Init(): it sizes chunks with Formula (1) and labels
// every partition with Algorithm 1. The chunk tables are metadata only; the
// engine's native partition blobs are untouched.
func NewSystem(layout Layout, mem *storage.Memory, cache *memsim.Cache, cfg Config) (*System, error) {
	g := layout.Graph()
	if cfg.Cost == (engine.CostModel{}) {
		cfg.Cost = engine.DefaultCostModel()
	}
	if cfg.VertexPay <= 0 {
		cfg.VertexPay = 8
	}
	if cfg.Cores < 0 {
		return nil, fmt.Errorf("core: Cores must be >= 0 (0 means GOMAXPROCS), got %d", cfg.Cores)
	}
	if cfg.Workers != 0 {
		return nil, fmt.Errorf("core: Workers must be 0 (partitions stream on the jobs' own goroutines), got %d", cfg.Workers)
	}
	if cfg.RelabelFactor != 0 && cfg.RelabelFactor < 1 {
		return nil, fmt.Errorf("core: RelabelFactor must be >= 1 (0 means the default of 2), got %v", cfg.RelabelFactor)
	}
	relabelFactor := cfg.RelabelFactor
	if relabelFactor == 0 {
		relabelFactor = 2
	}
	cores := cfg.Cores
	if cores == 0 {
		cores = runtime.GOMAXPROCS(0)
	}
	sc, err := chunk.ChunkSize(chunk.SizeParams{
		NumCores:  cores,
		LLCBytes:  cfg.LLCBytes,
		GraphSize: g.SizeBytes(),
		NumV:      int64(g.NumV),
		VertexPay: cfg.VertexPay,
		Reserved:  cfg.Reserved,
	})
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:           cfg,
		layout:        layout,
		g:             g,
		mem:           mem,
		cache:         cache,
		cost:          cfg.Cost,
		parts:         layout.Partitions(),
		partByID:      make(map[int]*Partition),
		sets:          make(map[int]*chunk.Set),
		chunkSize:     make(map[int]int64),
		relabelFactor: relabelFactor,
		snaps:         newSnapshotStore(),
		jobs:          make(map[int]*jobState),
		cores:         cores,
	}
	s.roundCond = sync.NewCond(&s.mu)
	s.evolveCond = sync.NewCond(&s.mu)
	s.window = twoPhaseWindow
	s.stats.ChunkBytes = sc
	for _, p := range s.parts {
		set := chunk.Label(p.ID, p.Edges, sc)
		s.partByID[p.ID] = p
		s.sets[p.ID] = set
		s.chunkSize[p.ID] = sc
		s.stats.NumChunks += set.NumChunks()
		s.stats.MetadataBytes += set.MetadataBytes()
	}
	return s, nil
}

// StatsSnapshot returns a copy of the system counters.
func (s *System) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Err returns the first failure observed by the controller, if any.
func (s *System) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Submit registers and starts a job under GraphM's built-in driver.
// Registration is synchronous (duplicate job IDs among live jobs are
// rejected immediately); the job joins the sharing pool at the next round
// boundary, as newly arrived jobs wait for their active graph data to be
// loaded (Figure 5, steps 1-2). Engines with their own streaming loop use
// OpenSession instead.
func (s *System) Submit(j *engine.Job) {
	sess, err := s.OpenSession(j)
	if err != nil {
		s.fail(err)
		return
	}
	go s.drive(sess)
}

// drive is the built-in driver loop for one session: the StreamEdges loop of
// Figure 6(b), over the session API. ProcessAll applies the partition's
// chunks in two phases.
func (s *System) drive(sess *Session) {
	defer sess.Close()
	for sess.BeginIteration() {
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
}

// Run admits each job at the round barrier once the simulated clock,
// counted from Run's call, reaches its stamp (engine.Job.ArriveNS), and
// waits for all of them. The round a job first joins depends on the
// simulated work alone; the jobs stamped 0 all join the first round.
func (s *System) Run(jobs []*engine.Job) error {
	for _, j := range jobs {
		j.Bind(s.g) // the program's Reset runs outside s.mu
	}
	s.mu.Lock()
	for _, j := range jobs {
		s.arrivals = append(s.arrivals, arrival{at: s.clock + j.ArriveNS, job: j})
	}
	slices.SortStableFunc(s.arrivals, func(a, b arrival) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.job.ID, b.job.ID))
	})
	s.maybeStartRoundLocked()
	s.mu.Unlock()
	return s.Wait()
}

// admitDueLocked registers every arrival the clock has reached, in stamp
// order and then by job ID, and starts its driver, which reaches the
// barrier only after s.mu is released; with no job live, the clock first
// jumps to the next stamp. It runs only at the round barrier, where the
// clock stands still, so every caller there admits the same jobs.
func (s *System) admitDueLocked() {
	if s.live == 0 && len(s.arrivals) > 0 {
		s.clock = max(s.clock, s.arrivals[0].at)
	}
	for len(s.arrivals) > 0 && s.arrivals[0].at <= s.clock {
		sess, err := s.register(s.arrivals[0].job, SessionOptions{})
		s.arrivals = s.arrivals[1:]
		if err != nil {
			s.failLocked(err)
			continue
		}
		go s.drive(sess)
	}
}

// Wait blocks until every submitted job has finished.
func (s *System) Wait() error {
	s.wg.Wait()
	return s.Err()
}

// beginIteration implements GetActiveVertices() plus the round barrier: the
// job publishes which partitions it needs (the global table of Section
// 3.3.1) and waits for the controller to start a round that includes it —
// or, for JoinMidRound sessions, attaches to the round in flight. It returns
// false when the job has been detached and must not start the iteration.
func (s *System) beginIteration(js *jobState) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if js.detachWanted {
		s.markDetachedLocked(js)
		return false
	}
	// The active/processed sets are per-iteration scratch: allocated once
	// per job and cleared in place, so the round loop of a long-running job
	// stops churning the heap.
	if js.active == nil {
		js.active = make(map[int]bool, len(s.parts))
		js.processed = make(map[int]bool, len(s.parts))
	} else {
		clear(js.active)
		clear(js.processed)
	}
	act := js.job.Prog.Active()
	for _, p := range s.parts {
		if len(p.Edges) == 0 {
			continue
		}
		if act.AnyInRange(p.SrcLo, p.SrcHi) {
			js.active[p.ID] = true
		}
	}
	// Barrier-waiters take precedence over mid-round attachment: if any job
	// is already waiting for a fresh round, attaching would keep extending
	// the in-flight round and starve it, so the joiner queues at the
	// barrier too and the round is allowed to drain. So does a round whose
	// last partition is open: attaching there only appends the joiner's
	// whole iteration to the round's tail, and whether an attendee of that
	// partition ends its iteration before or after the round does would
	// depend on which of its co-attendees the scheduler runs first.
	if js.joinMidRound && s.roundActive && s.readyCount == 0 && s.pos+1 < len(s.order) {
		s.attachMidRoundLocked(js)
		return true
	}
	js.ready = true
	s.readyCount++
	waitRound := s.round
	s.maybeStartRoundLocked()
	for s.err == nil && s.round == waitRound {
		if js.detachWanted {
			// Still waiting at the barrier: withdraw before the round forms,
			// so the job is never counted as an attendee (and never billed a
			// share of loads it would not stream).
			js.ready = false
			s.readyCount--
			s.markDetachedLocked(js)
			return false
		}
		s.roundCond.Wait()
	}
	return true
}

// broadcastAllLocked wakes every waiter in the system: round-barrier and
// sharing waiters, and the open partition's window attendees. Reserved for
// the rare events whose effect cannot be scoped to one wait list — system
// failure and externally requested detaches.
func (s *System) broadcastAllLocked() {
	s.roundCond.Broadcast()
	if s.cur != nil {
		s.cur.cond.Broadcast()
	}
}

// markDetachedLocked records a job's withdrawal exactly once, whichever
// path (round barrier, iteration start, or sharing) honors it.
func (s *System) markDetachedLocked(js *jobState) {
	if js.detached {
		return
	}
	js.detached = true
	s.stats.Detaches++
}

// attachMidRoundLocked splices a newly arrived job into the round in flight —
// the paper's dynamic-concurrency scenario, where jobs submitted at arbitrary
// times join the ongoing graph stream rather than waiting for it to wrap
// around. The job starts picking partitions up at the next partition barrier;
// any of its active partitions the stream has already passed (including the
// one currently open, whose chunk lockstep cannot be joined midway) are
// appended to the round order so the job still completes a full iteration.
// Jobs that already processed an appended partition do not re-attend it:
// attendance is recomputed from the processed sets each time a partition
// opens.
func (s *System) attachMidRoundLocked(js *jobState) {
	js.ready = false
	js.inRound = true
	s.stats.MidRoundJoins++
	// Compact the consumed prefix of the round order while appending: a
	// continuously busy service can keep one round in flight indefinitely
	// (each attaching iteration extends it), and the order must not grow
	// with the round's lifetime — only with its outstanding work.
	upcoming := append([]int(nil), s.order[s.pos+1:]...)
	seen := make(map[int]bool, len(upcoming))
	for _, pid := range upcoming {
		seen[pid] = true
	}
	var missed []int
	for pid := range js.active {
		if !seen[pid] {
			missed = append(missed, pid)
		}
	}
	// Appended partitions keep a deterministic order; the Section 4 scheduler
	// only ranks partitions known at round start.
	sort.Ints(missed)
	s.order = append(upcoming, missed...)
	s.pos = -1
	s.roundCond.Broadcast()
}

// detachLocked unhooks a job from the sharing controller mid-round. It is
// only called from sharing(), i.e. at a partition barrier from the job's
// perspective: the job is never streaming a partition at this point, so the
// only controller state that can reference it is the pending set of the
// partition currently open (opened after the job's last barrier). While
// any attendee is pending no window can have an owner, so removing the job
// there is the whole unhook: the parked ProcessAll callers re-check the
// owner election against the smaller attendance.
func (s *System) detachLocked(js *jobState) {
	js.inRound = false
	s.markDetachedLocked(js)
	cp := s.cur
	if cp == nil || !cp.pending[js.job.ID] {
		s.roundCond.Broadcast()
		return
	}
	delete(cp.pending, js.job.ID)
	for i, a := range cp.attend {
		if a == js {
			cp.attend = append(cp.attend[:i], cp.attend[i+1:]...)
			break
		}
	}
	cp.remaining--
	if cp.remaining == 0 {
		// The job was the partition's only outstanding attendee.
		s.advancePartitionLocked()
		return
	}
	cp.cond.Broadcast()
}

// maybeStartRoundLocked is the round barrier: with no round in flight, it
// admits the due arrivals and starts a new round once every live job waits
// there.
func (s *System) maybeStartRoundLocked() {
	if s.roundActive {
		return
	}
	s.admitDueLocked()
	if s.live == 0 || s.readyCount < s.live {
		return
	}
	s.startRoundLocked()
}

// startRoundLocked builds the global table (partition -> attending jobs),
// orders it with the Section 4 scheduler, and opens the first partition.
func (s *System) startRoundLocked() {
	s.round++
	s.readyCount = 0
	s.stats.Rounds++
	attend := make(map[int][]int)
	jobNP := make(map[int]int)
	for id, js := range s.jobs {
		if !js.ready {
			continue
		}
		js.ready = false
		js.inRound = true
		jobNP[id] = len(js.active)
		for pid := range js.active {
			attend[pid] = append(attend[pid], id)
		}
	}
	s.order = orderPartitions(attend, jobNP, s.cfg.Scheduler)
	s.pos = -1
	s.roundActive = true
	s.advancePartitionLocked()
	s.roundCond.Broadcast()
}

// advancePartitionLocked releases the current shared buffer and opens the
// next partition in the round's order that still has attending jobs; when
// the order is exhausted the round ends.
func (s *System) advancePartitionLocked() {
	if s.cur != nil {
		s.cur.buf.Release()
		s.cur = nil
	}
	for {
		s.pos++
		if s.pos >= len(s.order) {
			s.roundActive = false
			// Round over: suspended jobs re-evaluate their iteration.
			s.roundCond.Broadcast()
			return
		}
		pid := s.order[s.pos]
		var att []*jobState
		for _, js := range s.jobs {
			if s.attendsLocked(js, pid) {
				att = append(att, js)
			}
		}
		if len(att) == 0 {
			continue
		}
		// Deterministic attendee order: leader tie-breaks and the pricing
		// order must not depend on map iteration.
		sort.Slice(att, func(i, j int) bool { return att[i].job.ID < att[j].job.ID })
		// The partition barrier is the one point where no chunk of pid is in
		// flight, so the adaptive sizing rule may swap the partition's
		// labelling before any job captures it.
		s.maybeRelabelLocked(pid, len(att))
		part := s.partByID[pid]
		// Algorithm 2, lines 8–13: one shared buffer per partition.
		buf, io, err := s.mem.Load(part.DiskName, part.DiskName)
		if err != nil {
			s.failLocked(fmt.Errorf("core: loading partition %d: %w", pid, err))
			return
		}
		if io != storage.IONone {
			// The single disk transfer is amortized across attending jobs.
			share := s.cost.DiskNS(uint64(len(buf.Data))) / uint64(len(att))
			if s.cfg.LoadHook != nil {
				share += s.cfg.LoadHook(len(buf.Data), len(att))
			}
			for _, js := range att {
				js.job.AddMetrics(engine.Metrics{SimIONS: share})
			}
			s.clock += share * uint64(len(att))
		}
		if len(att) > 1 {
			s.stats.SharedLoads++
		}
		cp := &curPartition{
			part:      part,
			set:       s.sets[pid],
			buf:       buf,
			attend:    att,
			pending:   make(map[int]bool, len(att)),
			remaining: len(att),
			cond:      sync.NewCond(&s.mu),
		}
		for _, js := range att {
			cp.pending[js.job.ID] = true
			js.job.AddMetrics(engine.Metrics{PartitionLoads: 1})
		}
		s.cur = cp
		// Only jobs suspended in sharing care that a partition opened.
		s.roundCond.Broadcast()
		return
	}
}

// attendsLocked is the single source of truth for partition attendance:
// the job is in the round, still needs pid, and has no detach pending. The
// detach exclusion means a withdrawing job is never billed a share of a
// load opened after its request — and makes the detach's effect on
// attendance deterministic (the flag is set strictly before the open,
// wherever the job's own goroutine is).
func (s *System) attendsLocked(js *jobState, pid int) bool {
	return js.inRound && !js.detachWanted && js.active[pid] && !js.processed[pid]
}

// sharing is the Sharing() API of Table 1 / Algorithm 2 from the job's side:
// it blocks (suspends the job) until the controller opens a partition the
// job needs, and returns nil once the job has no further partitions this
// round.
func (s *System) sharing(js *jobState) *curPartition {
	s.mu.Lock()
	defer s.mu.Unlock()
	suspended := false
	for {
		if s.err != nil {
			js.inRound = false
			return nil
		}
		if len(js.processed) >= len(js.active) {
			// Iteration complete. Checked before detachWanted: a Detach
			// racing the final Sharing call of a converged iteration must
			// not mark the job detached — it is honored at the next
			// BeginIteration instead, and never if the job converges first.
			js.inRound = false
			return nil
		}
		if js.detachWanted {
			s.detachLocked(js)
			return nil
		}
		if !s.roundActive {
			// Round ended while the job still had unprocessed active
			// partitions: can only happen if those partitions had no edges
			// or the round order skipped them; treat as complete.
			js.inRound = false
			return nil
		}
		if s.cur != nil && s.cur.pending[js.job.ID] {
			delete(s.cur.pending, js.job.ID)
			if suspended {
				s.stats.Resumes++
			}
			js.curSample = profSample{}
			return s.cur
		}
		if !suspended {
			suspended = true
			s.stats.Suspensions++
		}
		s.roundCond.Wait()
	}
}

// chunkEdges returns chunk k of cp exactly as js observes it through its
// snapshot (private mutations / versioned updates applied), with the
// chunk's simulated base address and the index of its first edge within
// that address region.
func (s *System) chunkEdges(js *jobState, cp *curPartition, k int) (edges []graph.Edge, base uint64, first int) {
	t := cp.set.Chunks[k]
	if cpy := s.snaps.resolve(js.job.ID, js.born, cp.part.ID, k); cpy != nil {
		return cpy.edges, cpy.addr, 0
	}
	return cp.part.Edges[t.FirstEdge : t.FirstEdge+t.NumEdges], cp.buf.BaseAddr, t.FirstEdge
}

// recordSample accumulates Formula (2) observations for the profiler and
// returns the chunk's SimNS.
func (s *System) recordSample(js *jobState, st engine.StreamStats) uint64 {
	js.curSample.processed += float64(st.Processed)
	js.curSample.scanned += float64(st.Scanned)
	js.curSample.elapsedNS += float64(st.SimNS)
	return st.SimNS
}

// partitionBarrier is the Barrier() API of Table 1: the job declares the
// partition finished; the last job out advances the controller. The
// profiling phase consumes the partition's sample here (Section 3.4.2: the
// first two processed partitions of a new job).
func (s *System) partitionBarrier(js *jobState, cp *curPartition) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js.processed[cp.part.ID] = true
	if js.collected == cp {
		js.collected = nil // the partition's owner already observed it
	} else {
		s.observeLocked(js)
	}
	cp.remaining--
	if cp.remaining == 0 && s.cur == cp {
		// advancePartitionLocked wakes whoever the transition concerns; a
		// barrier that leaves the partition open concerns nobody else — no
		// other wait predicate reads remaining or processed.
		s.advancePartitionLocked()
	}
}

// observeLocked feeds the job's sample of the partition just streamed to
// its profiler.
func (s *System) observeLocked(js *jobState) {
	if js.prof.profiled {
		return
	}
	js.prof.observe(js.curSample, s.sharedTE)
	if js.prof.profiled && s.sharedTE == 0 && js.prof.tE > 0 {
		// T(E) is a property of the graph/machine: profiled once, shared
		// with later jobs (Section 3.4.2) — so the order in which jobs are
		// observed decides whose T(E) the others inherit.
		s.sharedTE = js.prof.tE
	}
}

// leave deregisters a finished job, releases its snapshot overrides, and
// lets the round barrier re-evaluate.
func (s *System) leave(js *jobState) {
	s.snaps.release(js.job.ID)
	s.mu.Lock()
	delete(s.jobs, js.job.ID)
	s.live--
	// Compute the oldest snapshot version any live job can still observe.
	minBorn := s.snaps.currentVersion()
	for _, other := range s.jobs {
		if other.born < minBorn {
			minBorn = other.born
		}
	}
	s.maybeStartRoundLocked()
	s.roundCond.Broadcast()
	s.mu.Unlock()
	s.snaps.pruneBefore(minBorn)
}

func (s *System) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failLocked(err)
}

func (s *System) failLocked(err error) {
	if s.err == nil {
		s.err = err
	}
	s.roundActive = false
	s.broadcastAllLocked()
}
