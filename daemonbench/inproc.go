package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"graphm/internal/bench"
	"graphm/internal/core"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/memsim"
	"graphm/internal/server"
	"graphm/internal/service"
	"graphm/internal/storage"
)

// inprocTarget builds the stack cmd/graphm-serve builds, with its default
// flags, inside this process behind a real loopback listener, and records
// spans around the calls that cross its public seams: the http.Handler, the
// server.Backend and the core.JobDriver its sessions return, the service's
// TicketLogger, the storage EvolveSink, the checkpoint housekeeping call,
// and storage.Open + Server.Restore on restart. Nothing inside the program
// is instrumented.
//
// The server keeps its durable surface only over a bare *core.System, so a
// durable daemon's Backend is not wrapped: its core spans are missing and
// its tickets' streaming time is reported unsplit.
type inprocTarget struct {
	tr *tracer

	// The running daemon.
	sys      *core.System
	mem      *storage.Memory
	cache    *memsim.Cache
	disk     *storage.Disk
	srv      *server.Server
	store    *storage.Store
	hs       *http.Server
	served   chan struct{}
	hkStop   chan struct{}
	hkDone   chan struct{}
	diskBase uint64
	diskOps0 uint64
	handler  *tracedHandler
	wrapped  bool

	acc layerCounters
}

// layerCounters accumulates the layers' own counters over every daemon a
// run starts (ukunion-backlog starts one per batch).
type layerCounters struct {
	core     core.Stats
	svcAdmit uint64
	peakQ    int
	peakIF   int

	met     engine.Metrics
	tickets int
	// queueWait and runtime are per ticket, keyed by ticket ID, for the
	// time-share table.
	queueWait map[int]time.Duration
	runtime   map[int]time.Duration

	llcHits, llcMisses              uint64
	memFaults, memEvicts, memRehits uint64
	memPeak                         int64
	diskBytes, diskOps              uint64

	wal         storage.WALStats
	requests    int64
	rejected429 int64
}

func newInprocTarget() *inprocTarget {
	return &inprocTarget{tr: newTracer(), acc: layerCounters{
		queueWait: make(map[int]time.Duration),
		runtime:   make(map[int]time.Duration),
	}}
}

// graphm-serve's flag defaults, which the traced stack must match.
const (
	serveCores    = 8
	serveWorkers  = 0
	serveInFlight = 8
	serveQueue    = 64
	serveSeed     = 42
	serveSLO      = 5 * time.Minute
	// checkpointTick is graphm-serve's housekeeping period.
	checkpointTick = 2 * time.Second
)

func (t *inprocTarget) launch(ds, dataDir string) (string, error) {
	if t.hs != nil {
		return "", errors.New("daemon already running")
	}
	env, err := bench.NewGridEnv(ds)
	if err != nil {
		return "", err
	}
	cfg := core.DefaultConfig(env.Spec.LLCBytes)
	cfg.Cores = serveCores
	cfg.Workers = serveWorkers
	mem := storage.NewMemory(env.Disk, env.Spec.MemBudget)
	cache, err := memsim.NewCache(memsim.DefaultConfig(env.Spec.LLCBytes))
	if err != nil {
		return "", err
	}
	sys, err := core.NewSystem(env.Grid.AsLayout(), mem, cache, cfg)
	if err != nil {
		return "", err
	}
	svcCfg := service.Config{MaxInFlight: serveInFlight, MaxQueuedPerTenant: serveQueue, Seed: serveSeed}

	var store *storage.Store
	var rec *storage.Recovery
	restart := false
	if dataDir != "" {
		start := t.tr.now()
		store, rec, err = storage.Open(dataDir, storage.StoreOptions{})
		if err != nil {
			return "", err
		}
		restart = rec.HasCheckpoint || rec.WALRecords > 0 || rec.Counts.Submitted > 0
		if restart {
			t.tr.record(spanRecoverOpen, 0, start, t.tr.now())
		}
		svcCfg.TicketLog = &tracedLogger{inner: store, tr: t.tr}
	}
	var backend server.Backend = sys
	t.wrapped = store == nil
	if t.wrapped {
		backend = &tracedBackend{sys: sys, tr: t.tr}
	}
	srv := server.NewWithBackend(backend, svcCfg, server.Config{SLOWindow: serveSLO})
	if store != nil {
		if restart {
			start := t.tr.now()
			if _, err := srv.Restore(store, rec); err != nil {
				store.Close()
				return "", fmt.Errorf("restore: %w", err)
			}
			t.tr.record(spanRestore, 0, start, t.tr.now())
		} else {
			srv.AttachStore(store)
		}
		sys.SetEvolveSink(&tracedSink{inner: store, tr: t.tr})
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if store != nil {
			store.Close()
		}
		return "", err
	}
	t.sys, t.mem, t.cache, t.disk, t.srv, t.store = sys, mem, cache, env.Disk, srv, store
	t.diskBase, t.diskOps0 = env.Disk.ReadBytes(), env.Disk.ReadOps()
	t.handler = &tracedHandler{next: srv, tr: t.tr}
	t.hs = &http.Server{Handler: t.handler}
	t.served = make(chan struct{})
	go func() {
		defer close(t.served)
		_ = t.hs.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	t.hkStop, t.hkDone = make(chan struct{}), make(chan struct{})
	go t.housekeeping(store != nil)
	return "http://" + ln.Addr().String(), nil
}

// housekeeping is the benchmark's copy of graphm-serve's checkpoint loop:
// every tick, write a checkpoint if the record cadence says one is due.
func (t *inprocTarget) housekeeping(durable bool) {
	defer close(t.hkDone)
	if !durable {
		<-t.hkStop
		return
	}
	tick := time.NewTicker(checkpointTick)
	defer tick.Stop()
	for {
		select {
		case <-t.hkStop:
			return
		case <-tick.C:
			start := t.tr.now()
			wrote, err := t.srv.MaybeCheckpoint(false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "daemonbench: checkpoint: %v\n", err)
			}
			if wrote {
				t.tr.record(spanCheckpoint, 0, start, t.tr.now())
			}
		}
	}
}

func (t *inprocTarget) peakRSSMB() (float64, error) { return vmHWM("self") }

func (t *inprocTarget) observe(ids []int) {
	a := &t.acc
	st := t.sys.StatsSnapshot()
	a.core = addStats(a.core, st)
	snap := t.srv.Service().Snapshot()
	a.svcAdmit += snap.Admitted
	a.peakQ = max(a.peakQ, snap.PeakQueued)
	a.peakIF = max(a.peakIF, snap.PeakInFlight)
	for _, id := range ids {
		tk, ok := t.srv.Service().Ticket(id)
		if !ok {
			continue
		}
		a.met.Add(tk.Job().Met)
		a.tickets++
		a.queueWait[id] = tk.QueueWait()
		a.runtime[id] = tk.Runtime()
	}
	a.llcHits += t.cache.TotalHits()
	a.llcMisses += t.cache.TotalMisses()
	a.memFaults += t.mem.Faults()
	a.memEvicts += t.mem.Evictions()
	a.memRehits += t.mem.Rehits()
	a.memPeak = max(a.memPeak, t.mem.Peak())
	a.diskBytes += t.disk.ReadBytes() - t.diskBase
	a.diskOps += t.disk.ReadOps() - t.diskOps0
	if t.store != nil {
		ws := t.store.WALStats()
		a.wal.Appends += ws.Appends
		a.wal.Syncs += ws.Syncs
		a.wal.Bytes += ws.Bytes
	}
	a.requests += t.handler.requests.Load()
	a.rejected429 += t.handler.rejected429.Load()
}

// addStats sums the accumulating controller counters of two daemons.
func addStats(a, b core.Stats) core.Stats {
	a.Rounds += b.Rounds
	a.Suspensions += b.Suspensions
	a.SharedLoads += b.SharedLoads
	a.MidRoundJoins += b.MidRoundJoins
	a.Prefetches += b.Prefetches
	a.PrefetchHits += b.PrefetchHits
	return a
}

// kill emulates SIGKILL: the store refuses every later write, so the
// directory keeps exactly what was durable, then the process-local pieces
// are torn down without a drain.
func (t *inprocTarget) kill() {
	if t.hs == nil {
		return
	}
	if t.store != nil {
		t.store.Crash()
	}
	t.teardown(func() {
		_ = t.hs.Close() // the crash drops every connection
		t.srv.Service().Shutdown()
	})
	if t.store != nil {
		_ = t.store.Close() // a crashed store skips its final flush
	}
	t.hs = nil
}

// stop is graphm-serve's SIGTERM path: drain, shut the listener, close the
// store.
func (t *inprocTarget) stop() error {
	if t.hs == nil {
		return nil
	}
	var err error
	t.teardown(func() {
		st := t.srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err = errors.Join(err, t.hs.Shutdown(ctx))
		if st.Error != "" || st.Failed != 0 {
			err = errors.Join(err, fmt.Errorf("drain: %d failed (%s)", st.Failed, st.Error))
		}
	})
	if t.store != nil {
		err = errors.Join(err, t.store.Close())
	}
	t.hs = nil
	return err
}

// teardown stops housekeeping, runs shut, and waits for the listener's
// goroutine to return.
func (t *inprocTarget) teardown(shut func()) {
	close(t.hkStop)
	<-t.hkDone
	shut()
	<-t.served
}

// tracedHandler spans every HTTP request and learns the ticket ID of each
// accepted submission from its own response.
type tracedHandler struct {
	next        http.Handler
	tr          *tracer
	requests    atomic.Int64
	rejected429 atomic.Int64
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := spanRequest
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		name = spanSubmit
	case r.URL.Path == "/v1/graph/edges":
		name = spanEvolve
	}
	idx := h.tr.begin(name, 0)
	rw := &recordingWriter{ResponseWriter: w, code: http.StatusOK, keep: name == spanSubmit}
	h.next.ServeHTTP(rw, r)
	h.tr.end(idx)
	h.requests.Add(1)
	if rw.code == http.StatusTooManyRequests {
		h.rejected429.Add(1)
	}
	if rw.keep && rw.code == http.StatusAccepted {
		var v struct {
			ID int `json:"id"`
		}
		if json.Unmarshal(rw.body.Bytes(), &v) == nil {
			h.tr.setTicket(idx, v.ID)
		}
	}
}

// recordingWriter keeps the status code and, when keep is set, a copy of
// the body.
type recordingWriter struct {
	http.ResponseWriter
	code int
	keep bool
	body bytes.Buffer
}

func (w *recordingWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *recordingWriter) Write(b []byte) (int, error) {
	if w.keep {
		w.body.Write(b)
	}
	return w.ResponseWriter.Write(b)
}

// tracedBackend spans the server.Backend calls and hands out traced
// drivers.
type tracedBackend struct {
	sys *core.System
	tr  *tracer
}

func (b *tracedBackend) OpenJobSession(j *engine.Job, opts core.SessionOptions) (core.JobDriver, error) {
	idx := b.tr.begin(spanOpenSession, j.ID)
	d, err := b.sys.OpenJobSession(j, opts)
	b.tr.end(idx)
	if err != nil {
		return nil, err
	}
	return &tracedDriver{inner: d, tr: b.tr, id: j.ID, streamFrom: -1}, nil
}

func (b *tracedBackend) StatsSnapshot() core.Stats { return b.sys.StatsSnapshot() }
func (b *tracedBackend) Err() error                { return b.sys.Err() }
func (b *tracedBackend) SnapshotVersion() int      { return b.sys.SnapshotVersion() }

func (b *tracedBackend) AddEdges(edges []graph.Edge) (int, error) {
	defer b.tr.end(b.tr.begin(spanCoreEvolve, 0))
	return b.sys.AddEdges(edges)
}

func (b *tracedBackend) AddEdgesFor(jobID int, edges []graph.Edge) error {
	defer b.tr.end(b.tr.begin(spanCoreEvolve, jobID))
	return b.sys.AddEdgesFor(jobID, edges)
}

func (b *tracedBackend) RemoveEdges(pred func(graph.Edge) bool) (int, int, error) {
	defer b.tr.end(b.tr.begin(spanCoreEvolve, 0))
	return b.sys.RemoveEdges(pred)
}

func (b *tracedBackend) RemoveEdgesFor(jobID int, pred func(graph.Edge) bool) (int, error) {
	defer b.tr.end(b.tr.begin(spanCoreEvolve, jobID))
	return b.sys.RemoveEdgesFor(jobID, pred)
}

// tracedDriver spans one job's driver calls. They all run on the job's
// driver goroutine, so the stream interval (Sharing's return to the next
// driver call) needs no lock.
type tracedDriver struct {
	inner      core.JobDriver
	tr         *tracer
	id         int
	streamFrom int64 // -1 when no partition is streaming
}

// call records the pending stream interval, then spans f as name, and
// returns when f returned.
func (d *tracedDriver) call(name string, f func()) int64 {
	start := d.tr.now()
	if d.streamFrom >= 0 {
		d.tr.record(spanStream, d.id, d.streamFrom, start)
		d.streamFrom = -1
	}
	f()
	end := d.tr.now()
	d.tr.record(name, d.id, start, end)
	return end
}

func (d *tracedDriver) BeginIteration() (ok bool) {
	d.call(spanRoundWait, func() { ok = d.inner.BeginIteration() })
	return ok
}

func (d *tracedDriver) Sharing() (sp *core.SharedPartition) {
	end := d.call(spanPartitionWait, func() { sp = d.inner.Sharing() })
	if sp != nil {
		d.streamFrom = end
	}
	return sp
}

func (d *tracedDriver) EndIteration() { d.call(spanEndIteration, d.inner.EndIteration) }
func (d *tracedDriver) Close()        { d.call(spanClose, d.inner.Close) }
func (d *tracedDriver) Detach()       { d.inner.Detach() }
func (d *tracedDriver) Detached() bool {
	return d.inner.Detached()
}
func (d *tracedDriver) Joined() bool { return d.inner.Joined() }

// tracedLogger spans the service's durable ticket-log calls.
type tracedLogger struct {
	inner service.TicketLogger
	tr    *tracer
}

func (l *tracedLogger) LogSubmit(id int, tenant, algo string, seed int64) error {
	defer l.tr.end(l.tr.begin(spanLogSubmit, id))
	return l.inner.LogSubmit(id, tenant, algo, seed)
}

func (l *tracedLogger) LogTerminal(id int, status string) {
	defer l.tr.end(l.tr.begin(spanLogTerminal, id))
	l.inner.LogTerminal(id, status)
}

// tracedSink spans each WAL append and the commit wait it hands back.
type tracedSink struct {
	inner storage.EvolveSink
	tr    *tracer
}

func (s *tracedSink) AppendEvolve(rec storage.EvolveRecord) (func() error, error) {
	idx := s.tr.begin(spanWALAppend, 0)
	commit, err := s.inner.AppendEvolve(rec)
	s.tr.end(idx)
	if err != nil || commit == nil {
		return commit, err
	}
	return func() error {
		defer s.tr.end(s.tr.begin(spanWALCommit, 0))
		return commit()
	}, nil
}
