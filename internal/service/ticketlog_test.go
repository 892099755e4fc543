package service_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"graphm/internal/core"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/gridgraph"
	"graphm/internal/memsim"
	"graphm/internal/service"
	"graphm/internal/storage"
)

// memTicketLog captures the ticket lifecycle in storage.Store's on-disk
// record format, so byte-comparing two captured logs compares exactly what
// a durable deployment would have persisted.
type memTicketLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *memTicketLog) LogSubmit(id int, tenant, algo string, seed int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(&l.buf, "submit %d %q %s %d\n", id, tenant, algo, seed)
	return nil
}

func (l *memTicketLog) LogTerminal(id int, status string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(&l.buf, "end %d %s\n", id, status)
}

func (l *memTicketLog) Bytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.buf.Bytes()...)
}

// ticketLogRun is one deterministic service workload's observable
// footprint.
type ticketLogRun struct {
	log    []byte
	status map[int]service.Status
	work   map[int]engine.WorkCounters
}

// runServiceWorkload drives a fixed submission sequence against a fresh
// core.System and returns everything the repeatability check asserts on.
// Determinism comes from three choices: MaxInFlight=1 serializes admissions,
// the finish gate parks the first driver until every submission (and the one
// cancel) has been logged, and Cores=1 keeps convergence-driven iteration
// counts schedule-free.
func runServiceWorkload(t *testing.T) ticketLogRun {
	t.Helper()
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("svc-ticketlog", 300, 2200, 7))
	if err != nil {
		t.Fatal(err)
	}
	disk := storage.NewDisk()
	grid, err := gridgraph.Build(g, 3, disk)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(32 << 10)
	cfg.Cores = 1
	cfg.Scheduler = false
	cache, err := memsim.NewCache(memsim.DefaultConfig(32 << 10))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(grid.AsLayout(), storage.NewMemory(disk, 64<<20), cache, cfg)
	if err != nil {
		t.Fatal(err)
	}

	log := &memTicketLog{}
	gate := make(chan struct{})
	svc := service.New(sys, service.Config{
		MaxInFlight: 1,
		Seed:        99,
		TicketLog:   log,
		FinishGate:  func(*service.Ticket) { <-gate },
	})

	reqs := []service.Request{
		{Tenant: "alpha", Algo: "pagerank"},
		{Tenant: "beta", Algo: "wcc"},
		{Tenant: "alpha", Algo: "bfs"},
		{Tenant: "beta", Algo: "sssp"},
		{Tenant: "alpha", Algo: "wcc"},
		{Tenant: "beta", Algo: "pagerank"},
		{Tenant: "alpha", Algo: "labelprop"},
		{Tenant: "beta", Algo: "kcore"},
	}
	var tickets []*service.Ticket
	for _, req := range reqs {
		tk, err := svc.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	// Ticket 7 is still queued (the sole in-flight driver is parked on the
	// gate), so this cancel lands at a fixed position in every run's log.
	if err := svc.Cancel(tickets[6].ID); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Wait(); err != nil {
		t.Fatal(err)
	}

	run := ticketLogRun{
		log:    log.Bytes(),
		status: make(map[int]service.Status),
		work:   make(map[int]engine.WorkCounters),
	}
	for _, tk := range tickets {
		run.status[tk.ID] = tk.Wait()
		run.work[tk.ID] = tk.Job().Met.Work()
	}
	return run
}

// TestServiceTicketLogRepeatable drives one deterministic submission script
// through the real service (queueing, round-robin fairness, a cancel of a
// queued ticket, ticket logging) twice. Both runs must leave a
// byte-identical ticket log, identical terminal statuses and identical
// per-job work counters, with ticket 7 canceled and the other seven done.
func TestServiceTicketLogRepeatable(t *testing.T) {
	ref := runServiceWorkload(t)
	if ref.status[7] != service.StatusCanceled {
		t.Fatalf("ticket 7 finished %v, want canceled", ref.status[7])
	}
	done := 0
	for id, st := range ref.status {
		if st == service.StatusDone {
			done++
		} else if id != 7 {
			t.Fatalf("ticket %d finished %v", id, st)
		}
	}
	if done != 7 {
		t.Fatalf("%d tickets done, want 7", done)
	}
	run := runServiceWorkload(t)
	if !bytes.Equal(run.log, ref.log) {
		t.Fatalf("ticket log diverged between two runs\nfirst:\n%s\nsecond:\n%s", ref.log, run.log)
	}
	for id, want := range ref.status {
		if got := run.status[id]; got != want {
			t.Fatalf("ticket %d finished %v, first run %v", id, got, want)
		}
	}
	for id, want := range ref.work {
		if got := run.work[id]; got != want {
			t.Fatalf("ticket %d work %+v, first run %+v", id, got, want)
		}
	}
}
