package bench

import (
	"fmt"
	"time"

	"graphm/internal/jobs"
)

// hotpath is the raw streaming-throughput experiment for the chunk-apply
// hot path: the Twitter rotation workload under GraphM, reporting scanned
// edges per second of wall-clock (Medges/s) — the quantity the run-length
// LLC accounting, batched counter flushing and per-partition lockstep
// wakeups buy. The serial row (workers=0, the serial driver, two-phase
// under FineSync, that every simulated-time experiment uses) is the pinned
// perf-gate variant; the
// worker sweep shows how the executor's real concurrency stacks on top
// (its wall-clock scales with the runner's cores, so it stays out of the
// gate, like BenchmarkParallelExecutor).
func (h *Harness) hotpath() ([]*Table, error) {
	return h.hotpathRows([]int{0, 1, 2, 4})
}

// hotpathSerial is the serial-only variant backing BenchmarkHotpathSerial,
// the perf-regression-gate entry.
func (h *Harness) hotpathSerial() ([]*Table, error) {
	return h.hotpathRows([]int{0})
}

// hotpathSerialAlgo is the per-algorithm serial gate variant: the same
// serial driver over a homogeneous rotation of one batched algorithm, so
// benchgate pins each algorithm's ProcessEdges hot path individually
// instead of only the mixed rotation's blend.
func (h *Harness) hotpathSerialAlgo(algo string) ([]*Table, error) {
	return h.hotpathRowsAlgo([]int{0}, algo)
}

func (h *Harness) hotpathRows(workerSweep []int) ([]*Table, error) {
	return h.hotpathRowsAlgo(workerSweep, "")
}

// hotpathRowsAlgo runs the hot-path throughput rows; algo "" uses the
// paper's mixed WCC/PageRank/SSSP/BFS rotation, otherwise a homogeneous
// rotation of the named algorithm.
func (h *Harness) hotpathRowsAlgo(workerSweep []int, algo string) ([]*Table, error) {
	e, err := h.gridEnv("twitter")
	if err != nil {
		return nil, err
	}
	jobCount := h.JobCount
	if jobCount <= 0 {
		jobCount = 8
	}
	mix := "rotation"
	mk := func() *jobs.Workload { return jobs.Rotation(jobCount, h.Seed) }
	if algo != "" {
		mix = algo
		mk = func() *jobs.Workload { return jobs.RotationOf(algo, jobCount, h.Seed) }
	}
	t := &Table{
		Title:   fmt.Sprintf("hot path: streaming throughput, %d %s jobs, twitter", jobCount, mix),
		Headers: []string{"driver", "wall", "scanned edges", "Medges/s", "LLC miss rate"},
		Notes: []string{
			"Medges/s: scanned edges per second of real wall-clock — the hot-path throughput the LLC simulation permits",
			"serial is the workers=0 serial driver (two-phase under FineSync) of every simulated-time experiment (the perf-gate variant)",
		},
	}
	for _, w := range workerSweep {
		res, err := e.RunScheme(SchemeM, mk, RunOptions{Cores: h.Cores, Workers: w})
		if err != nil {
			return nil, fmt.Errorf("workers=%d: %w", w, err)
		}
		driver := "serial"
		if w > 0 {
			driver = fmt.Sprintf("workers=%d", w)
		}
		medges := 0.0
		if res.Wall > 0 {
			medges = float64(res.ScannedEdges) / res.Wall.Seconds() / 1e6
		}
		t.Rows = append(t.Rows, []string{
			driver,
			res.Wall.Round(time.Millisecond).String(),
			human(res.ScannedEdges),
			f2(medges),
			pct(res.LLCMissRate()),
		})
	}
	return []*Table{t}, nil
}
