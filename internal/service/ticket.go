package service

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"graphm/internal/algorithms"
	"graphm/internal/core"
	"graphm/internal/engine"
)

// Status is a ticket's lifecycle stage. The happy path is
// Queued → Admitted → Streaming → Done; Canceled and Failed are terminal
// exits reachable from any earlier stage.
type Status int

const (
	// StatusQueued: accepted by Submit, waiting in its tenant's queue.
	StatusQueued Status = iota
	// StatusAdmitted: session opened with the sharing controller; the job
	// attaches to the streaming round at the next partition barrier.
	StatusAdmitted
	// StatusStreaming: the job has begun its first iteration.
	StatusStreaming
	// StatusDone: the job converged and its session closed.
	StatusDone
	// StatusCanceled: canceled — either dequeued before admission or
	// detached from the sharing controller mid-round.
	StatusCanceled
	// StatusFailed: the underlying system failed while the job ran.
	StatusFailed
)

// Terminal reports whether the status is a final state.
func (st Status) Terminal() bool {
	return st == StatusDone || st == StatusCanceled || st == StatusFailed
}

func (st Status) String() string {
	switch st {
	case StatusQueued:
		return "queued"
	case StatusAdmitted:
		return "admitted"
	case StatusStreaming:
		return "streaming"
	case StatusDone:
		return "done"
	case StatusCanceled:
		return "canceled"
	case StatusFailed:
		return "failed"
	default:
		return fmt.Sprintf("status(%d)", int(st))
	}
}

// Request describes one job submission to the service.
type Request struct {
	// Tenant is the fairness domain the job bills to; empty means the
	// shared "default" tenant.
	Tenant string
	// Algo names a built-in algorithm (see NewProgram). Ignored when Prog
	// is set.
	Algo string
	// Prog, when non-nil, is the program instance to run. It must be fresh:
	// programs are stateful and bound to the graph at admission.
	Prog engine.Program
	// Seed drives the job's private RNG (random roots, damping draws);
	// zero derives a deterministic seed from the service seed and job ID.
	Seed int64
}

// NewProgram instantiates a service-supported algorithm by name: the
// paper's four benchmark algorithms plus the extended rotation used by the
// CLIs. Unlike jobs.NewProgram it reports unknown names as errors, which an
// online admission path must surface rather than panic on.
func NewProgram(algo string) (engine.Program, error) {
	switch algo {
	case "pagerank":
		return algorithms.NewPageRank(0, 10), nil
	case "wcc":
		return algorithms.NewWCC(0), nil
	case "bfs":
		return algorithms.NewRandomBFS(), nil
	case "sssp":
		return algorithms.NewRandomSSSP(), nil
	case "ppr":
		return algorithms.NewRandomPPR(), nil
	case "labelprop":
		return algorithms.NewLabelPropagation(0), nil
	case "kcore":
		return algorithms.NewKCore(0), nil
	default:
		return nil, fmt.Errorf("service: unknown algorithm %q", algo)
	}
}

// Ticket tracks one submitted job through its lifecycle. All methods are
// safe for concurrent use.
type Ticket struct {
	// ID is the service-assigned job ID (also the engine job ID).
	ID int
	// Tenant is the fairness domain the job was billed to.
	Tenant string
	// Algo is the program name the job runs.
	Algo string

	job  *engine.Job
	done chan struct{}

	mu           sync.Mutex
	status       Status
	err          error
	cancelWanted bool
	sess         core.JobDriver

	queuedAt   time.Time
	admittedAt time.Time
	doneAt     time.Time

	statsAtAdmit core.Stats
	statsDelta   core.Stats

	// simNS is the job's simulated execution time, captured when the ticket
	// turns terminal so callers can put the cost-model time next to the
	// real elapsed Runtime.
	simNS uint64
}

func newTicket(id int, tenant, algo string, prog engine.Program, seed int64) *Ticket {
	return &Ticket{
		ID:     id,
		Tenant: tenant,
		Algo:   algo,
		job:    engine.NewJob(id, prog, seed),
		done:   make(chan struct{}),
		status: StatusQueued,
	}
}

// Status returns the ticket's current lifecycle stage.
func (t *Ticket) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// Err returns the terminal error, if any (only set for StatusFailed).
func (t *Ticket) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Done returns a channel closed when the ticket reaches a terminal status.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the ticket is terminal and returns the final status.
func (t *Ticket) Wait() Status {
	<-t.done
	return t.Status()
}

// Job exposes the underlying engine job for metric inspection. Callers must
// not read it before the ticket is terminal: the driver goroutine mutates
// job state while the ticket is live.
func (t *Ticket) Job() *engine.Job { return t.job }

// StatsDelta returns the system-wide counter deltas accumulated between the
// job's admission and completion — how many rounds, shared loads and
// mid-round joins the system performed while this job was in flight. Zero
// until the ticket is terminal.
func (t *Ticket) StatsDelta() core.Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.statsDelta
}

// QueueWait returns how long the ticket waited before admission (zero while
// still queued and for never-admitted cancellations).
func (t *Ticket) QueueWait() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.admittedAt.IsZero() {
		return 0
	}
	return t.admittedAt.Sub(t.queuedAt)
}

// Runtime returns the real (wall-clock) admission-to-terminal duration —
// what the streaming actually took on this machine. Zero until terminal.
func (t *Ticket) Runtime() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.admittedAt.IsZero() || t.doneAt.IsZero() {
		return 0
	}
	return t.doneAt.Sub(t.admittedAt)
}

// SimRuntime returns the job's simulated execution time under the cost
// model (compute + memory + amortized I/O) — the paper's reported quantity,
// independent of how the chunks were scheduled on real cores. Zero until
// the ticket is terminal.
func (t *Ticket) SimRuntime() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.simNS)
}

func (t *Ticket) setStreaming() {
	t.mu.Lock()
	if t.status == StatusAdmitted {
		t.status = StatusStreaming
	}
	t.mu.Unlock()
}

// deriveSeed spreads the service base seed across job IDs deterministically.
func deriveSeed(base int64, id int) int64 {
	rng := rand.New(rand.NewSource(base + int64(id)))
	return rng.Int63()
}
