package service_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"graphm/internal/algorithms"
	"graphm/internal/core"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/gridgraph"
	"graphm/internal/memsim"
	"graphm/internal/service"
	"graphm/internal/storage"
)

// gatedProgram wraps a Program and blocks its first ProcessEdge call until
// released. While blocked, the job is pinned mid-partition, so the round it
// joined is provably in flight — tests use it to make arrival overlap
// deterministic instead of depending on goroutine timing (this container
// has a single CPU, where short jobs otherwise serialize).
type gatedProgram struct {
	engine.Program
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGated(p engine.Program) *gatedProgram {
	return &gatedProgram{Program: p, started: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedProgram) ProcessEdge(e graph.Edge) bool {
	g.once.Do(func() {
		close(g.started)
		<-g.release
	})
	return g.Program.ProcessEdge(e)
}

// newSystem builds a small grid-backed GraphM instance for service tests.
func newSystem(t *testing.T, numV, numE int) *core.System {
	t.Helper()
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("svc", numV, numE, 7))
	if err != nil {
		t.Fatal(err)
	}
	disk := storage.NewDisk()
	grid, err := gridgraph.Build(g, 4, disk)
	if err != nil {
		t.Fatal(err)
	}
	mem := storage.NewMemory(disk, 64<<20)
	cache, err := memsim.NewCache(memsim.DefaultConfig(64 << 10))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(64 << 10)
	cfg.Cores = 4
	sys, err := core.NewSystem(grid.AsLayout(), mem, cache, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestStaggeredArrivalsShareInFlightLoads(t *testing.T) {
	sys := newSystem(t, 600, 5000)
	svc := service.New(sys, service.Config{MaxInFlight: 16, Seed: 1})

	// The first arrival is gated mid-partition, guaranteeing the nine
	// staggered arrivals land while it is still streaming.
	gate := newGated(algorithms.NewWCC(0))
	first, err := svc.Submit(service.Request{Prog: gate, Algo: "wcc", Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started
	algos := []string{"pagerank", "wcc", "bfs", "sssp"}
	tickets := []*service.Ticket{first}
	for i := 0; i < 9; i++ {
		tk, err := svc.Submit(service.Request{Algo: algos[i%len(algos)]})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
		time.Sleep(time.Millisecond)
	}
	close(gate.release)
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tickets {
		if st := tk.Wait(); st != service.StatusDone {
			t.Fatalf("ticket %d finished %v, want done (err: %v)", tk.ID, st, tk.Err())
		}
		if tk.Job().Met.Iterations == 0 {
			t.Fatalf("ticket %d ran zero iterations", tk.ID)
		}
	}
	st := svc.SystemStats()
	if st.SharedLoads == 0 {
		t.Fatal("no partition load was shared between jobs")
	}
	snap := svc.Snapshot()
	if snap.Completed != 10 || snap.Admitted != 10 {
		t.Fatalf("snapshot = %+v, want 10 admitted+completed", snap)
	}
}

func TestMidRoundJoinAttachesLateArrival(t *testing.T) {
	sys := newSystem(t, 600, 5000)
	svc := service.New(sys, service.Config{MaxInFlight: 8, Seed: 2})

	// Gate the first job mid-partition: its round stays in flight until the
	// gate opens, so every late arrival must attach mid-round.
	gate := newGated(algorithms.NewWCC(0))
	first, err := svc.Submit(service.Request{Prog: gate, Algo: "wcc", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started
	var late []*service.Ticket
	for i := 0; i < 4; i++ {
		tk, err := svc.Submit(service.Request{Algo: "wcc"})
		if err != nil {
			t.Fatal(err)
		}
		late = append(late, tk)
	}
	// Wait until every late driver has begun its first iteration — each one
	// necessarily attaches to the pinned round — then release the gate.
	deadline := time.Now().Add(10 * time.Second)
	for _, tk := range late {
		for tk.Status() != service.StatusStreaming {
			if time.Now().After(deadline) {
				t.Fatalf("late ticket %d never started streaming", tk.ID)
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(gate.release)
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := first.Wait(); st != service.StatusDone {
		t.Fatalf("gated job = %v, want done", st)
	}
	st := svc.SystemStats()
	if st.MidRoundJoins < 4 {
		t.Fatalf("MidRoundJoins = %d, want >= 4 (every late arrival joined a pinned round)", st.MidRoundJoins)
	}
	if st.SharedLoads == 0 {
		t.Fatal("late arrivals shared no loads with the long job")
	}
	for _, tk := range late {
		if got := tk.Wait(); got != service.StatusDone {
			t.Fatalf("late ticket %d = %v, want done", tk.ID, got)
		}
		delta := tk.StatsDelta()
		if delta.Rounds < 0 || delta.SharedLoads < 0 {
			t.Fatalf("negative stats delta: %+v", delta)
		}
	}
}

func TestConcurrentSubmissionsUnderRace(t *testing.T) {
	sys := newSystem(t, 400, 3000)
	svc := service.New(sys, service.Config{MaxInFlight: 6, MaxQueuedPerTenant: 64, Seed: 4})

	const goroutines = 8
	const perG = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			tenant := []string{"alpha", "beta", "gamma"}[gi%3]
			for k := 0; k < perG; k++ {
				tk, err := svc.Submit(service.Request{Tenant: tenant, Algo: "bfs"})
				if err != nil {
					errs <- err
					return
				}
				if st := tk.Wait(); st != service.StatusDone {
					errs <- errors.New("job did not finish: " + st.String())
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	snap := svc.Snapshot()
	if want := uint64(goroutines * perG); snap.Completed != want {
		t.Fatalf("completed %d, want %d", snap.Completed, want)
	}
	if snap.Queued != 0 || snap.InFlight != 0 {
		t.Fatalf("service not drained: %+v", snap)
	}
}

func TestBackpressureRejectsFloods(t *testing.T) {
	sys := newSystem(t, 400, 3000)
	svc := service.New(sys, service.Config{MaxInFlight: 1, MaxQueuedPerTenant: 2, Seed: 5})

	var sawFull bool
	for i := 0; i < 12; i++ {
		_, err := svc.Submit(service.Request{Algo: "pagerank"})
		if errors.Is(err, service.ErrQueueFull) {
			sawFull = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("flood was never rejected with ErrQueueFull")
	}
	if svc.Snapshot().Rejected == 0 {
		t.Fatal("rejection not counted")
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestTenantFairnessRoundRobin(t *testing.T) {
	sys := newSystem(t, 400, 3000)
	// The gate job holds its slot until every submission below has queued,
	// so the admission order is round-robin's alone, not a race between the
	// submissions and how fast the gate job streams.
	release := make(chan struct{})
	var holdGate sync.Once
	svc := service.New(sys, service.Config{MaxInFlight: 1, MaxQueuedPerTenant: 32, Seed: 6,
		FinishGate: func(*service.Ticket) { holdGate.Do(func() { <-release }) }})

	// The first submission occupies the single slot; everything after
	// queues. A flood from "noisy" then one job from "quiet": round-robin
	// admission must pick quiet's job next, not drain noisy's queue first.
	gate, err := svc.Submit(service.Request{Tenant: "noisy", Algo: "wcc"})
	if err != nil {
		t.Fatal(err)
	}
	var noisy []*service.Ticket
	for i := 0; i < 6; i++ {
		tk, err := svc.Submit(service.Request{Tenant: "noisy", Algo: "pagerank"})
		if err != nil {
			t.Fatal(err)
		}
		noisy = append(noisy, tk)
	}
	quiet, err := svc.Submit(service.Request{Tenant: "quiet", Algo: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	gate.Wait()
	quiet.Wait()
	// Round-robin admission: quiet's lone job entered the single slot right
	// after the gate job, so every queued noisy job was admitted after it.
	for _, tk := range noisy[1:] {
		tk.Wait()
		if quiet.QueueWait() > tk.QueueWait() {
			t.Fatalf("quiet tenant waited %v, longer than noisy backlog job %d (%v)",
				quiet.QueueWait(), tk.ID, tk.QueueWait())
		}
	}
}

func TestCancelQueuedTicket(t *testing.T) {
	sys := newSystem(t, 400, 3000)
	svc := service.New(sys, service.Config{MaxInFlight: 1, Seed: 7})

	if _, err := svc.Submit(service.Request{Algo: "pagerank"}); err != nil {
		t.Fatal(err)
	}
	queued, err := svc.Submit(service.Request{Algo: "wcc"})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if st := queued.Wait(); st != service.StatusCanceled {
		t.Fatalf("canceled queued ticket = %v", st)
	}
	if queued.QueueWait() != 0 {
		t.Fatal("never-admitted ticket reports a queue wait")
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	if snap := svc.Snapshot(); snap.Canceled != 1 || snap.Completed != 1 {
		t.Fatalf("snapshot = %+v, want 1 canceled + 1 completed", snap)
	}
}

func TestCancelInFlightDetaches(t *testing.T) {
	sys := newSystem(t, 600, 5000)
	svc := service.New(sys, service.Config{MaxInFlight: 4, Seed: 8})

	// An effectively endless job: cancellation is its only way out.
	endless := algorithms.NewPageRank(0.85, 1_000_000)
	endless.Tolerance = -1 // negative disables the early exit; 0 would mean Reset's 1e-7 default
	victim, err := svc.Submit(service.Request{Prog: endless, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := svc.Submit(service.Request{Algo: "wcc"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for victim.Status() != service.StatusStreaming {
		if time.Now().After(deadline) {
			t.Fatal("victim never started streaming")
		}
		time.Sleep(time.Millisecond)
	}
	if err := svc.Cancel(victim.ID); err != nil {
		t.Fatal(err)
	}
	if st := victim.Wait(); st != service.StatusCanceled {
		t.Fatalf("canceled in-flight ticket = %v", st)
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := bystander.Wait(); st != service.StatusDone {
		t.Fatalf("bystander = %v, want done", st)
	}
	if stats := svc.SystemStats(); stats.Detaches == 0 {
		t.Fatal("detach not recorded by the controller")
	}
}

func TestSubmitErrors(t *testing.T) {
	sys := newSystem(t, 400, 3000)
	svc := service.New(sys, service.Config{Seed: 10})

	if _, err := svc.Submit(service.Request{Algo: "no-such-algo"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(service.Request{Algo: "bfs"}); !errors.Is(err, service.ErrClosed) {
		t.Fatalf("submit after drain = %v, want ErrClosed", err)
	}
}

func TestShutdownCancelsBacklog(t *testing.T) {
	sys := newSystem(t, 600, 5000)
	svc := service.New(sys, service.Config{MaxInFlight: 1, Seed: 11})

	endless := algorithms.NewPageRank(0.85, 1_000_000)
	endless.Tolerance = -1 // negative disables the early exit; 0 would mean Reset's 1e-7 default
	head, err := svc.Submit(service.Request{Prog: endless, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	var backlog []*service.Ticket
	for i := 0; i < 3; i++ {
		tk, err := svc.Submit(service.Request{Algo: "bfs"})
		if err != nil {
			t.Fatal(err)
		}
		backlog = append(backlog, tk)
	}
	svc.Shutdown()
	if st := head.Wait(); st != service.StatusCanceled {
		t.Fatalf("in-flight job after Shutdown = %v, want canceled", st)
	}
	for _, tk := range backlog {
		if st := tk.Wait(); st != service.StatusCanceled {
			t.Fatalf("queued job after Shutdown = %v, want canceled", st)
		}
	}
}

func TestLifecycleTimestampsAndForget(t *testing.T) {
	sys := newSystem(t, 400, 3000)
	svc := service.New(sys, service.Config{Seed: 13})

	tk, err := svc.Submit(service.Request{Tenant: "ops", Algo: "wcc"})
	if err != nil {
		t.Fatal(err)
	}
	if st := tk.Wait(); st != service.StatusDone {
		t.Fatalf("status = %v", st)
	}
	if tk.Runtime() <= 0 {
		t.Fatal("terminal ticket has no runtime")
	}
	if got, ok := svc.Ticket(tk.ID); !ok || got != tk {
		t.Fatal("ticket lookup failed")
	}
	if !svc.Forget(tk.ID) {
		t.Fatal("terminal ticket not forgotten")
	}
	if _, ok := svc.Ticket(tk.ID); ok {
		t.Fatal("forgotten ticket still resolvable")
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
}
