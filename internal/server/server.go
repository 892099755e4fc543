// Package server turns the admission service into a long-running network
// daemon: an HTTP/JSON API over internal/service (submit / ticket status /
// cancel / drain), per-tenant token-bucket rate limiting with queue-full →
// 429 backpressure, live SLO tracking through internal/slo rolling windows,
// and a dependency-free Prometheus /metrics endpoint exporting the runtime
// counters the earlier PRs accumulated.
//
// The package is deliberately a thin shell: every admission decision
// (fairness, queue bounds, mid-round attach) stays in internal/service, and
// every quantile is computed by internal/slo — the same aggregation the
// offline replay reports use, which is what makes the daemon's online
// numbers differentially testable against the replay computation.
//
// # API surface (v1)
//
// See docs/API.md for the full reference. In brief:
//
//	POST   /v1/jobs      submit a job ({"algo": ...}); tenant from X-Tenant
//	GET    /v1/jobs/{id} ticket status + per-job stats delta when terminal
//	DELETE /v1/jobs/{id} cancel (dequeue, or detach at the next barrier)
//	POST   /v1/drain     stop admitting, run everything down, report state
//	GET    /metrics      Prometheus text format
//	GET    /healthz      liveness + draining flag
//
// # Lifecycle
//
// A Server owns its service.Service (New constructs it so the SLO observers
// are wired into the service's admission hooks). The embedding process
// serves HTTP through an *http.Server and on SIGTERM calls Drain: the
// daemon stops admitting (submissions get 503), in-flight and queued
// tickets run to completion, and the returned RecoveryState reports what
// the process completed, canceled and left rejected — the paper's
// amortization counters included.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphm/internal/core"
	"graphm/internal/graph"
	"graphm/internal/service"
	"graphm/internal/slo"
	"graphm/internal/storage"
)

// Config tunes the HTTP layer. The zero value is a usable daemon with rate
// limiting disabled and five-minute SLO windows.
type Config struct {
	// Clock drives the rate limiter and the SLO windows (nil means
	// core.WallClock; tests inject a core.VirtualClock).
	Clock core.Clock
	// RatePerSec is the per-tenant token-bucket refill rate for POST
	// /v1/jobs. Zero or negative disables rate limiting.
	RatePerSec float64
	// Burst is the bucket capacity (default: RatePerSec rounded up, min 1).
	Burst float64
	// SLOWindow is the rolling span of the queue-wait and runtime windows
	// exported by /metrics (default 5m).
	SLOWindow time.Duration
	// SLOBuckets is the window granularity (default 30 buckets).
	SLOBuckets int
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = core.WallClock{}
	}
	if c.RatePerSec < 0 {
		c.RatePerSec = 0 // negative means the same as zero: no rate limit
	}
	if c.Burst <= 0 {
		c.Burst = c.RatePerSec
		if c.Burst != float64(int64(c.Burst)) {
			c.Burst = float64(int64(c.Burst) + 1)
		}
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	if c.SLOWindow <= 0 {
		c.SLOWindow = 5 * time.Minute
	}
	if c.SLOBuckets <= 0 {
		c.SLOBuckets = 30
	}
	return c
}

// Backend is the streaming substrate the daemon fronts: the admission
// surface (service.Backend) plus the graph-mutation API the evolve
// endpoints expose. Satisfied by *core.System, and by any wrapper around one
// that a test or benchmark harness substitutes to time or trace its calls.
type Backend interface {
	service.Backend
	AddEdges(edges []graph.Edge) (int, error)
	AddEdgesFor(jobID int, edges []graph.Edge) error
	RemoveEdges(pred func(graph.Edge) bool) (version, removed int, err error)
	RemoveEdgesFor(jobID int, pred func(graph.Edge) bool) (removed int, err error)
	SnapshotVersion() int
}

// Server is the HTTP front end over one admission service. It implements
// http.Handler; all methods are safe for concurrent use.
type Server struct {
	svc *service.Service
	sys Backend
	// dsys is the durable-capable concrete system — non-nil only when the
	// backend is a *core.System itself. The durable paths (Restore,
	// AttachStore, checkpoints) require it; a wrapping backend runs
	// in-memory only.
	dsys *core.System
	cfg  Config
	mux  *http.ServeMux

	limiter *tenantLimiter

	// waitSLO records queue waits (seconds) the moment tickets are
	// admitted; runSLO records admission-to-terminal runtimes (seconds) as
	// tickets turn terminal. Both are rolling windows over Config.SLOWindow.
	waitSLO *slo.Window
	runSLO  *slo.Window

	mu        sync.Mutex
	draining  bool
	store     *storage.Store
	recovered *RecoveredState
	degrade   degradedState

	httpRequests    atomic.Uint64
	httpErrors      atomic.Uint64
	httpRateLimited atomic.Uint64
	degradedTotal   atomic.Uint64
	probeAttempts   atomic.Uint64

	started time.Time
}

// New builds the daemon: it constructs the admission service over sys with
// svcCfg (chaining the server's SLO observers onto any OnAdmit/OnTerminal
// hooks already present) and wires the HTTP routes. The system must be
// dedicated to this server.
func New(sys *core.System, svcCfg service.Config, cfg Config) *Server {
	return NewWithBackend(sys, svcCfg, cfg)
}

// NewWithBackend is New over any Backend. A *core.System backend keeps the
// full durable surface; any other backend (a harness's wrapper around a
// System) serves the same HTTP API in memory-only mode — Restore/AttachStore
// must not be called and checkpoints are never due.
func NewWithBackend(sys Backend, svcCfg service.Config, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		sys:     sys,
		cfg:     cfg,
		waitSLO: slo.NewWindow(cfg.SLOWindow, cfg.SLOBuckets, cfg.Clock),
		runSLO:  slo.NewWindow(cfg.SLOWindow, cfg.SLOBuckets, cfg.Clock),
		started: cfg.Clock.Now(),
	}
	if cfg.RatePerSec > 0 {
		s.limiter = newTenantLimiter(cfg.RatePerSec, cfg.Burst, cfg.Clock)
	}

	prevAdmit, prevTerminal := svcCfg.OnAdmit, svcCfg.OnTerminal
	svcCfg.OnAdmit = func(t *service.Ticket) {
		s.waitSLO.Observe(t.QueueWait().Seconds())
		if prevAdmit != nil {
			prevAdmit(t)
		}
	}
	svcCfg.OnTerminal = func(t *service.Ticket) {
		if rt := t.Runtime(); rt > 0 {
			s.runSLO.Observe(rt.Seconds())
		}
		if prevTerminal != nil {
			prevTerminal(t)
		}
	}
	if svcCfg.Clock == nil {
		svcCfg.Clock = cfg.Clock
	}
	if ds, ok := sys.(*core.System); ok {
		s.dsys = ds
	}
	s.svc = service.NewWithBackend(sys, svcCfg)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleTicket)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	mux.HandleFunc("POST /v1/graph/edges", s.handleEvolveAdd)
	mux.HandleFunc("DELETE /v1/graph/edges", s.handleEvolveRemove)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux = mux
	return s
}

// Service exposes the wrapped admission service (tests and the legacy
// one-shot CLI path use it; HTTP clients never need it).
func (s *Server) Service() *service.Service { return s.svc }

// ServeHTTP dispatches one request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.httpRequests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// Draining reports whether a drain has begun (submissions are refused).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) setDraining() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// RecoveryState is the daemon's end-of-life report: what the process
// admitted, finished and refused, plus the final SLO view — returned by
// Drain, served by POST /v1/drain, and printed by graphm-serve on SIGTERM.
type RecoveryState struct {
	Drained bool `json:"drained"`

	Submitted uint64 `json:"submitted"`
	Admitted  uint64 `json:"admitted"`
	Completed uint64 `json:"completed"`
	Canceled  uint64 `json:"canceled"`
	Failed    uint64 `json:"failed"`
	Rejected  uint64 `json:"rejected"`

	PeakInFlight int `json:"peak_in_flight"`
	PeakQueued   int `json:"peak_queued"`

	SharedLoads   uint64 `json:"shared_loads"`
	MidRoundJoins uint64 `json:"mid_round_joins"`
	Rounds        int    `json:"rounds"`

	// QueueWait / Runtime are the rolling-window SLO views at drain time
	// (seconds) — the daemon's last word on its latency objectives.
	QueueWait slo.Summary `json:"queue_wait"`
	Runtime   slo.Summary `json:"runtime"`

	// Recovered reports what this process reconstructed at startup, when it
	// started from a durable data directory.
	Recovered *RecoveredState `json:"recovered,omitempty"`

	Error string `json:"error,omitempty"`
}

// Drain stops admitting (new submissions get 503), runs every queued and
// in-flight ticket to completion, and returns the final state. Safe to call
// more than once; every call blocks until the service is drained.
func (s *Server) Drain() RecoveryState {
	s.setDraining()
	err := s.svc.Drain()
	snap := s.svc.Snapshot()
	stats := s.svc.SystemStats()
	st := RecoveryState{
		Drained:       true,
		Submitted:     snap.Submitted,
		Admitted:      snap.Admitted,
		Completed:     snap.Completed,
		Canceled:      snap.Canceled,
		Failed:        snap.Failed,
		Rejected:      snap.Rejected,
		PeakInFlight:  snap.PeakInFlight,
		PeakQueued:    snap.PeakQueued,
		SharedLoads:   stats.SharedLoads,
		MidRoundJoins: stats.MidRoundJoins,
		Rounds:        stats.Rounds,
		QueueWait:     s.waitSLO.Snapshot(),
		Runtime:       s.runSLO.Snapshot(),
		Recovered:     s.Recovered(),
	}
	if err != nil {
		st.Error = err.Error()
	}
	// The drained state is a consistent cut — every ticket is terminal — so
	// it is the natural final checkpoint before shutdown.
	if _, ckErr := s.MaybeCheckpoint(true); ckErr != nil && st.Error == "" {
		st.Error = ckErr.Error()
	}
	return st
}

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	// Algo names a built-in algorithm (service.NewProgram's set).
	Algo string `json:"algo"`
	// Seed drives the job's private RNG; zero derives one deterministically.
	Seed int64 `json:"seed,omitempty"`
}

// ticketResponse is the JSON view of one ticket, shared by submit, status
// and cancel responses.
type ticketResponse struct {
	ID     int    `json:"id"`
	Tenant string `json:"tenant"`
	Algo   string `json:"algo"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`

	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	RuntimeSeconds   float64 `json:"runtime_seconds,omitempty"`

	// Terminal-only fields: the driver goroutine owns the job's metrics
	// while the ticket is live, so they are reported only once it is over.
	SimRuntimeSeconds float64    `json:"sim_runtime_seconds,omitempty"`
	Iterations        uint64     `json:"iterations,omitempty"`
	Stats             *statsView `json:"stats,omitempty"`
}

// statsView is the per-job system-counter delta (admission → terminal).
type statsView struct {
	SharedLoads   uint64 `json:"shared_loads"`
	MidRoundJoins uint64 `json:"mid_round_joins"`
	Rounds        int    `json:"rounds"`
	Suspensions   uint64 `json:"suspensions"`
	Relabels      uint64 `json:"relabels"`
}

func ticketView(t *service.Ticket) ticketResponse {
	st := t.Status()
	resp := ticketResponse{
		ID:               t.ID,
		Tenant:           t.Tenant,
		Algo:             t.Algo,
		Status:           st.String(),
		QueueWaitSeconds: t.QueueWait().Seconds(),
	}
	if err := t.Err(); err != nil {
		resp.Error = err.Error()
	}
	if st.Terminal() {
		resp.RuntimeSeconds = t.Runtime().Seconds()
		resp.SimRuntimeSeconds = t.SimRuntime().Seconds()
		resp.Iterations = t.Job().Met.Iterations
		delta := t.StatsDelta()
		resp.Stats = &statsView{
			SharedLoads:   delta.SharedLoads,
			MidRoundJoins: delta.MidRoundJoins,
			Rounds:        delta.Rounds,
			Suspensions:   delta.Suspensions,
			Relabels:      delta.Relabels,
		}
	}
	return resp
}

// errorResponse is the JSON error envelope for every non-2xx status.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	if code >= 400 {
		s.httpErrors.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// tenantOf resolves the request's tenant key: the X-Tenant header, default
// "default". Keys are limited to 64 printable characters so a client cannot
// mint unbounded limiter/fairness state with garbage headers.
func (s *Server) tenantOf(r *http.Request) (string, error) {
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		return "default", nil
	}
	if len(tenant) > 64 {
		return "", errors.New("X-Tenant longer than 64 bytes")
	}
	if strings.ContainsFunc(tenant, func(c rune) bool { return c < 0x21 || c > 0x7e }) {
		return "", errors.New("X-Tenant must be printable ASCII without spaces")
	}
	return tenant, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.refuseWrites(w) {
		return
	}
	tenant, err := s.tenantOf(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid tenant: %v", err)
		return
	}
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid body: %v", err)
		return
	}
	if req.Algo == "" {
		s.writeError(w, http.StatusBadRequest, "missing \"algo\"")
		return
	}
	if s.limiter != nil {
		if ok, retry := s.limiter.allow(tenant); !ok {
			s.httpRateLimited.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retry)))
			s.writeError(w, http.StatusTooManyRequests, "tenant %q over its submission rate", tenant)
			return
		}
	}
	tk, err := s.svc.Submit(service.Request{Tenant: tenant, Algo: req.Algo, Seed: req.Seed})
	switch {
	case errors.Is(err, service.ErrQueueFull):
		// Backpressure, not failure: the client should retry after a beat.
		s.httpRateLimited.Add(1)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case s.maybeDegrade("ticket-log", err):
		// The submission could not be made durable: never acknowledge it.
		s.writeUnavailable(w, "degraded (ticket-log): %v", err)
		return
	case errors.Is(err, service.ErrClosed):
		s.writeUnavailable(w, "%v", err)
		return
	case err != nil:
		// Unknown algorithm or other validation failure.
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, ticketView(tk))
}

// ticketFromPath resolves the {id} wildcard to a live ticket, writing the
// error response itself when it cannot.
func (s *Server) ticketFromPath(w http.ResponseWriter, r *http.Request) (*service.Ticket, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid job id %q", r.PathValue("id"))
		return nil, false
	}
	tk, ok := s.svc.Ticket(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown job %d", id)
		return nil, false
	}
	return tk, true
}

func (s *Server) handleTicket(w http.ResponseWriter, r *http.Request) {
	tk, ok := s.ticketFromPath(w, r)
	if !ok {
		return
	}
	s.writeJSON(w, http.StatusOK, ticketView(tk))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	tk, ok := s.ticketFromPath(w, r)
	if !ok {
		return
	}
	if err := s.svc.Cancel(tk.ID); err != nil {
		s.writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	// Cancellation of a streaming ticket is asynchronous (the detach lands
	// at the next partition barrier), so 202 + the current view.
	s.writeJSON(w, http.StatusAccepted, ticketView(tk))
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Drain())
}

// healthStorage is the /healthz view of the durable store's health.
type healthStorage struct {
	WALFailed     bool   `json:"wal_failed"`
	TicketBroken  bool   `json:"ticket_broken"`
	TicketDropped uint64 `json:"ticket_dropped"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	degraded, cause, detail := s.Degraded()
	if degraded {
		status = "degraded"
	}
	resp := struct {
		Status        string          `json:"status"`
		Draining      bool            `json:"draining"`
		Degraded      bool            `json:"degraded"`
		DegradedCause string          `json:"degraded_cause,omitempty"`
		DegradedError string          `json:"degraded_error,omitempty"`
		Storage       *healthStorage  `json:"storage,omitempty"`
		Recovered     *RecoveredState `json:"recovered,omitempty"`
	}{Status: status, Draining: s.Draining(), Degraded: degraded, DegradedCause: cause, DegradedError: detail, Recovered: s.Recovered()}
	if st := s.Store(); st != nil {
		h := st.Health()
		resp.Storage = &healthStorage{WALFailed: h.WALFailed, TicketBroken: h.TicketBroken, TicketDropped: h.TicketDropped}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// retryAfterSeconds rounds a wait up to whole seconds, minimum 1 (the
// Retry-After header has one-second resolution).
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// WaitSLO returns the live queue-wait window snapshot (seconds).
func (s *Server) WaitSLO() slo.Summary { return s.waitSLO.Snapshot() }

// RunSLO returns the live runtime window snapshot (seconds).
func (s *Server) RunSLO() slo.Summary { return s.runSLO.Snapshot() }
