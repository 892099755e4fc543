package bench

import (
	"fmt"
	"math/rand"
	"time"

	"graphm/internal/core"
	"graphm/internal/memsim"
	"graphm/internal/service"
	"graphm/internal/storage"
)

// openloop is the open-arrival scenario: instead of the closed, pre-declared
// batches of the figure experiments, jobs arrive Poisson-style at a
// configurable rate and are admitted by the service layer into whatever
// round is streaming. The scan over arrival rates shows the system's
// defining behaviour under online traffic: the denser the arrivals, the
// more partition loads each disk transfer amortizes (shared loads and
// mid-round joins climb with the rate), which is the property every future
// scaling PR is measured against.
func (h *Harness) openloop() ([]*Table, error) {
	e, err := h.gridEnv("uk-union")
	if err != nil {
		return nil, err
	}
	jobs := h.JobCount
	if jobs <= 0 {
		jobs = 16
	}
	t := &Table{
		Title:   fmt.Sprintf("open-loop arrivals: %d jobs admitted online, uk-union (out-of-core)", jobs),
		Headers: []string{"rate(jobs/s)", "completed", "shared loads", "mid-round joins", "loads/IO", "avg queue wait", "wall"},
		Notes: []string{
			"open arrivals join the in-flight round at the next partition barrier (service layer)",
			"loads/IO: job-side partition loads served per disk read — denser arrivals amortize better",
			"shared loads, mid-round joins, loads/IO, avg queue wait and wall follow real-time arrivals through the service: wall-clock readings that vary run to run",
		},
	}
	for _, rate := range []float64{10, 40, 160} {
		row, err := h.openloopRate(e, jobs, rate)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// openloopRate runs one open-loop execution at the given arrival rate
// (jobs per second of wall time) and returns its table row.
func (h *Harness) openloopRate(e *GridEnv, jobs int, rate float64) ([]string, error) {
	e.Disk.ResetCounters()
	e.Disk.DropCaches()
	e.Disk.SetPageCache(e.Spec.MemBudget)
	mem := storage.NewMemory(e.Disk, e.Spec.MemBudget)
	cache, err := memsim.NewCache(memsim.DefaultConfig(e.Spec.LLCBytes))
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(e.Spec.LLCBytes)
	cfg.Cores = h.Cores
	sys, err := core.NewSystem(e.Grid.AsLayout(), mem, cache, cfg)
	if err != nil {
		return nil, err
	}
	// Admit at most half the workload at once so dense arrival bursts
	// actually queue: the queue-wait column then reflects the arrival rate
	// instead of being structurally zero.
	svc := service.New(sys, service.Config{MaxInFlight: (jobs + 1) / 2, Seed: h.Seed})

	rotation := []string{"wcc", "pagerank", "sssp", "bfs"}
	arrivals := poissonGaps(jobs, rate, h.Seed)
	start := time.Now()
	var tickets []*service.Ticket
	for i := 0; i < jobs; i++ {
		if arrivals[i] > 0 {
			time.Sleep(arrivals[i])
		}
		tk, err := svc.Submit(service.Request{
			Tenant: fmt.Sprintf("t%d", i%2),
			Algo:   rotation[i%len(rotation)],
		})
		if err != nil {
			return nil, err
		}
		tickets = append(tickets, tk)
	}
	if err := svc.Drain(); err != nil {
		return nil, err
	}
	wall := time.Since(start)

	var wait time.Duration
	var jobLoads uint64
	for _, tk := range tickets {
		wait += tk.QueueWait()
		jobLoads += tk.Job().Met.PartitionLoads
	}
	amortize := 0.0
	if ops := e.Disk.ReadOps(); ops > 0 {
		amortize = float64(jobLoads) / float64(ops)
	}
	snap := svc.Snapshot()
	stats := svc.SystemStats()
	return []string{
		fmt.Sprintf("%.0f", rate),
		fmt.Sprintf("%d", snap.Completed),
		fmt.Sprintf("%d", stats.SharedLoads),
		fmt.Sprintf("%d", stats.MidRoundJoins),
		f2(amortize),
		fmt.Sprintf("%v", (wait / time.Duration(len(tickets))).Round(time.Microsecond)),
		fmt.Sprintf("%v", wall.Round(time.Millisecond)),
	}, nil
}

// poissonGaps returns exponential inter-arrival gaps for an open-loop
// submission at the given mean rate (first arrival is immediate).
func poissonGaps(n int, perSecond float64, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	gaps := make([]time.Duration, n)
	for i := 1; i < n; i++ {
		gaps[i] = time.Duration(rng.ExpFloat64() / perSecond * float64(time.Second))
	}
	return gaps
}
