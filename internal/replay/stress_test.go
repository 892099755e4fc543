package replay_test

import (
	"sync"
	"testing"

	"graphm/internal/core"
	"graphm/internal/graph"
	"graphm/internal/gridgraph"
	"graphm/internal/memsim"
	"graphm/internal/service"
	"graphm/internal/storage"
	"graphm/internal/trace"
)

func stressSystem(t *testing.T) *core.System {
	t.Helper()
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("stress", 300, 2400, 19))
	if err != nil {
		t.Fatal(err)
	}
	disk := storage.NewDisk()
	grid, err := gridgraph.Build(g, 3, disk)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := memsim.NewCache(memsim.DefaultConfig(32 << 10))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(32 << 10)
	cfg.Cores = 2
	sys, err := core.NewSystem(grid.AsLayout(), storage.NewMemory(disk, 64<<20), cache, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestStressStatsDeltaSumsToTotals replays a compressed trace (no virtual
// waits — every tenant fires its submissions as fast as the race detector
// lets it) through the service with MaxInFlight=1. Serial admission makes
// the per-ticket StatsDelta windows tile the timeline exactly: no counter
// can move while no ticket is in flight, so the sum of every ticket's delta
// must equal the system totals, counter for counter. Run under -race this
// doubles as a concurrency stress of Submit/admit/finish.
func TestStressStatsDeltaSumsToTotals(t *testing.T) {
	sys := stressSystem(t)
	svc := service.New(sys, service.Config{MaxInFlight: 1, MaxQueuedPerTenant: 64, Seed: 23})

	tr := trace.Generate(6, 23) // ~50 events, compressed to zero inter-arrival time
	tenants := []string{"alpha", "beta", "gamma"}
	var mu sync.Mutex
	var tickets []*service.Ticket
	var wg sync.WaitGroup
	for ti, tenant := range tenants {
		wg.Add(1)
		go func(ti int, tenant string) {
			defer wg.Done()
			for i, e := range tr.Events {
				if i%len(tenants) != ti {
					continue
				}
				tk, err := svc.Submit(service.Request{Tenant: tenant, Algo: e.Algo, Seed: e.Seed})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				tickets = append(tickets, tk)
				mu.Unlock()
			}
		}(ti, tenant)
	}
	wg.Wait()
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}

	var sum core.Stats
	for _, tk := range tickets {
		if st := tk.Status(); st != service.StatusDone {
			t.Fatalf("ticket %d finished %v", tk.ID, st)
		}
		d := tk.StatsDelta()
		sum.Rounds += d.Rounds
		sum.Suspensions += d.Suspensions
		sum.Resumes += d.Resumes
		sum.SharedLoads += d.SharedLoads
		sum.MidRoundJoins += d.MidRoundJoins
		sum.Detaches += d.Detaches
		sum.Relabels += d.Relabels
		sum.RelabelSkips += d.RelabelSkips
	}
	total := svc.SystemStats()
	if sum.Rounds != total.Rounds ||
		sum.Suspensions != total.Suspensions ||
		sum.Resumes != total.Resumes ||
		sum.SharedLoads != total.SharedLoads ||
		sum.MidRoundJoins != total.MidRoundJoins ||
		sum.Detaches != total.Detaches ||
		sum.Relabels != total.Relabels ||
		sum.RelabelSkips != total.RelabelSkips {
		t.Fatalf("per-ticket delta sums do not tile the totals:\nsum   %+v\ntotal %+v", sum, total)
	}
	if sum.Rounds == 0 {
		t.Fatal("no rounds counted — the assertion is vacuous")
	}
}

// TestStressConcurrentTenantsOverlapping hammers the overlapping-admission
// path under -race: many tenants, a deep in-flight window, and a virtual
// clock being advanced concurrently with the drivers. Overlapping StatsDelta windows cannot tile, so here each delta
// is bounded by the totals and the lifecycle counters must balance.
func TestStressConcurrentTenantsOverlapping(t *testing.T) {
	sys := stressSystem(t)
	clock := core.NewVirtualClock(core.WallClock{}.Now())
	svc := service.New(sys, service.Config{MaxInFlight: 8, MaxQueuedPerTenant: 64, Seed: 29, Clock: clock})

	tr := trace.Generate(8, 29)
	tenants := []string{"a", "b", "c", "d"}
	stop := make(chan struct{})
	var clockWG sync.WaitGroup
	clockWG.Add(1)
	go func() {
		defer clockWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clock.Advance(1)
			}
		}
	}()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var tickets []*service.Ticket
	for ti, tenant := range tenants {
		wg.Add(1)
		go func(ti int, tenant string) {
			defer wg.Done()
			for i, e := range tr.Events {
				if i%len(tenants) != ti {
					continue
				}
				tk, err := svc.Submit(service.Request{Tenant: tenant, Algo: e.Algo, Seed: e.Seed})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				tickets = append(tickets, tk)
				mu.Unlock()
			}
		}(ti, tenant)
	}
	wg.Wait()
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	clockWG.Wait()

	total := svc.SystemStats()
	for _, tk := range tickets {
		d := tk.StatsDelta()
		if d.Rounds > total.Rounds || d.SharedLoads > total.SharedLoads || d.MidRoundJoins > total.MidRoundJoins {
			t.Fatalf("ticket %d delta exceeds totals: %+v vs %+v", tk.ID, d, total)
		}
		if tk.QueueWait() < 0 || tk.Runtime() < 0 {
			t.Fatalf("ticket %d has negative virtual durations: wait=%v run=%v", tk.ID, tk.QueueWait(), tk.Runtime())
		}
	}
	snap := svc.Snapshot()
	// Submitted counts only accepted submissions (rejections are tallied
	// separately and never enter the queue), and this test tolerates no
	// rejections — so every submission must complete.
	if snap.Rejected != 0 {
		t.Fatalf("unexpected rejections: %+v", snap)
	}
	if snap.Completed != snap.Submitted {
		t.Fatalf("lifecycle imbalance: %+v", snap)
	}
	if total.MidRoundJoins == 0 {
		t.Fatal("overlapping arrivals produced no mid-round joins")
	}
}
