package bench

import (
	"fmt"
	"runtime"
	"time"

	"graphm/internal/jobs"
)

// parallel is the real-concurrency experiment for the streaming executor:
// the same out-of-core workload swept over the executor's worker count,
// reporting wall-clock speedup against the workers=1 serial pipeline. The
// simulated columns are the control: the cost model prices counted work, so
// the simulated makespan and the jobs' work counters must stay (essentially)
// flat across the sweep while the wall-clock column scales — real
// parallelism changes when the work happens, never how much work there is.
func (h *Harness) parallel() ([]*Table, error) {
	e, err := h.gridEnv("uk-union")
	if err != nil {
		return nil, err
	}
	jobCount := h.JobCount
	if jobCount <= 0 {
		jobCount = 16
	}
	t := &Table{
		Title: fmt.Sprintf("parallel executor: %d jobs, uk-union (out-of-core), worker sweep", jobCount),
		Headers: []string{"workers", "wall", "speedup", "peak streams", "sim makespan(s)",
			"scanned edges", "shared loads", "prefetch hit/start"},
		Notes: []string{
			fmt.Sprintf("speedup: wall-clock of workers=1 over this row (>1.5x expected at 4 workers given >=4 cores; GOMAXPROCS here: %d)", runtime.GOMAXPROCS(0)),
			"peak streams: chunk applications in flight at once — the pool's real concurrency, which cores turn into speedup",
			"sim makespan prices counted work and must stay ~flat across the sweep",
			"workers=1 streams the executor's chunk schedule serially; the figure experiments use the serial driver (workers=0, two-phase under FineSync), whose work counters match it",
		},
	}
	var base time.Duration
	for _, w := range []int{1, 2, 4, 8} {
		res, err := e.RunScheme(SchemeM, func() *jobs.Workload {
			return jobs.Rotation(jobCount, h.Seed)
		}, RunOptions{Cores: h.Cores, Workers: w})
		if err != nil {
			return nil, fmt.Errorf("workers=%d: %w", w, err)
		}
		if w == 1 {
			base = res.Wall
		}
		speedup := 0.0
		if res.Wall > 0 {
			speedup = float64(base) / float64(res.Wall)
		}
		st := res.SysStats
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", w),
			res.Wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%d", st.PeakParallelStreams),
			f2(res.MakespanSec()),
			human(res.ScannedEdges),
			human(st.SharedLoads),
			fmt.Sprintf("%d/%d", st.PrefetchHits, st.Prefetches),
		})
	}
	return []*Table{t}, nil
}
