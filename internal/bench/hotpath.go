package bench

import (
	"fmt"
	"time"

	"graphm/internal/jobs"
)

// hotpathSerial is the raw streaming-throughput experiment for the
// chunk-apply hot path: the Twitter rotation workload under GraphM,
// reporting scanned edges per second of wall-clock (Medges/s) — the
// quantity the run-length LLC accounting, batched counter flushing and
// two-phase streaming buy. It backs BenchmarkHotpathSerial, the
// perf-regression-gate entry.
func (h *Harness) hotpathSerial() ([]*Table, error) {
	return h.hotpathSerialAlgo("")
}

// hotpathSerialAlgo runs the hot-path throughput row; algo "" uses the
// paper's mixed WCC/PageRank/SSSP/BFS rotation, otherwise a homogeneous
// rotation of the named algorithm, so benchgate pins each algorithm's
// ProcessEdges hot path individually instead of only the mixed rotation's
// blend.
func (h *Harness) hotpathSerialAlgo(algo string) ([]*Table, error) {
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
			"serial is the streaming driver (two-phase under FineSync) of every simulated-time experiment",
		},
	}
	res, err := e.RunScheme(SchemeM, mk, RunOptions{Cores: h.Cores})
	if err != nil {
		return nil, err
	}
	medges := 0.0
	if res.Wall > 0 {
		medges = float64(res.ScannedEdges) / res.Wall.Seconds() / 1e6
	}
	t.Rows = append(t.Rows, []string{
		"serial",
		res.Wall.Round(time.Millisecond).String(),
		human(res.ScannedEdges),
		f2(medges),
		pct(res.LLCMissRate()),
	})
	return []*Table{t}, nil
}
