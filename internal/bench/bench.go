// Package bench is the evaluation harness: one runner per table and figure
// of the paper's Section 5, producing text tables with the same rows/series
// the paper reports. Absolute numbers come from the simulated cost model
// (see internal/engine.CostModel and DESIGN.md); the shapes — who wins, by
// roughly what factor, where the crossovers fall — are the reproduction
// target.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"graphm/internal/core"
	"graphm/internal/graph"
	"graphm/internal/gridgraph"
	"graphm/internal/jobs"
	"graphm/internal/memsim"
	"graphm/internal/storage"
)

// Table is a printable experiment result.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Scheme names used throughout (the paper's GridGraph-S/-C/-M etc.).
const (
	SchemeS = "S" // sequential jobs, original engine
	SchemeC = "C" // concurrent jobs, original engine, OS-managed
	SchemeM = "M" // concurrent jobs with GraphM
)

// Schemes lists the comparison order of the figures.
var Schemes = []string{SchemeS, SchemeC, SchemeM}

// SchemeResult aggregates one scheme execution over a workload.
type SchemeResult struct {
	Scheme string
	Jobs   int
	Cores  int

	Wall time.Duration

	ComputeNS uint64
	MemNS     uint64
	IONS      uint64

	MemPeak      int64
	IOBytes      uint64
	IOLoads      uint64
	LLCMisses    uint64
	LLCHits      uint64
	SwappedBytes uint64
	LPI          float64

	ScannedEdges   uint64
	ProcessedEdges uint64

	SysStats *core.Stats // only for SchemeM
}

// LLCMissRate returns misses / (hits + misses).
func (r *SchemeResult) LLCMissRate() float64 {
	total := r.LLCHits + r.LLCMisses
	if total == 0 {
		return 0
	}
	return float64(r.LLCMisses) / float64(total)
}

// SeqEfficiency is the intra-job parallel efficiency of a single job
// spread over all cores (scheme S): one job's threads synchronise at every
// iteration and cannot always keep the whole machine busy, whereas
// independent concurrent jobs (C and M) fill the cores. The constant is
// calibrated to the paper's in-memory C-vs-S gap (~1.5-1.7x).
const SeqEfficiency = 0.6

// MakespanSec converts counted work into the scheme's simulated makespan:
// compute and memory-level access parallelise across cores (with the
// single-job efficiency penalty for scheme S); disk/NIC time is a serial
// shared resource. This is the documented cost model of DESIGN.md.
func (r *SchemeResult) MakespanSec() float64 {
	cores := float64(r.Cores)
	if cores < 1 {
		cores = 1
	}
	if r.Scheme == SchemeS {
		cores *= SeqEfficiency
	}
	parallel := float64(r.ComputeNS+r.MemNS) / cores
	return (parallel + float64(r.IONS)) / 1e9
}

// AvgJobSec is the mean per-job simulated time — Figure 3(d)'s metric.
func (r *SchemeResult) AvgJobSec() float64 {
	if r.Jobs == 0 {
		return 0
	}
	return r.MakespanSec() / float64(r.Jobs)
}

// GridEnv is one dataset prepared for GridGraph-based experiments. The grid
// and its disk blobs are built once; each scheme run gets a fresh memory
// pool and LLC so counters are independent.
type GridEnv struct {
	Spec graph.DatasetSpec
	G    *graph.Graph
	Disk *storage.Disk
	Grid *gridgraph.Grid

	// GridP is the P used for the P×P partitioning.
	GridP int
}

// NewGridEnv generates the dataset preset and builds its grid.
func NewGridEnv(dataset string) (*GridEnv, error) {
	g, spec, err := graph.Dataset(dataset)
	if err != nil {
		return nil, err
	}
	disk := storage.NewDisk()
	p := gridP(spec)
	grid, err := gridgraph.Build(g, p, disk)
	if err != nil {
		return nil, err
	}
	return &GridEnv{Spec: spec, G: g, Disk: disk, Grid: grid, GridP: p}, nil
}

// gridP picks the grid dimension as GridGraph does: enough partitions that
// a block comfortably fits in memory even out-of-core.
func gridP(spec graph.DatasetSpec) int {
	switch {
	case spec.NumE >= 400_000:
		return 8
	case spec.NumE >= 100_000:
		return 6
	default:
		return 4
	}
}

// RunOptions tunes a scheme execution.
type RunOptions struct {
	Cores int
	// Scheduler controls the Section 4 strategy in SchemeM (default on).
	SchedulerOff bool
	// FineSyncOff disables chunk-level synchronization in SchemeM.
	FineSyncOff bool
	// MemBudget overrides the preset budget when non-zero.
	MemBudget int64
	// LLCBytes overrides the preset LLC size when non-zero.
	LLCBytes int64
}

func (o RunOptions) cores() int {
	if o.Cores <= 0 {
		return 8
	}
	return o.Cores
}

// RunScheme executes a freshly built workload under the named scheme and
// returns aggregated metrics. wf must return a fresh workload each call
// (programs are stateful). Only SchemeM honours the jobs' arrival stamps:
// SchemeS runs the jobs back to back and SchemeC starts every job at once.
func (e *GridEnv) RunScheme(scheme string, wf func() *jobs.Workload, opts RunOptions) (*SchemeResult, error) {
	w := wf()
	budget := e.Spec.MemBudget
	if opts.MemBudget > 0 {
		budget = opts.MemBudget
	}
	llc := e.Spec.LLCBytes
	if opts.LLCBytes > 0 {
		llc = opts.LLCBytes
	}
	e.Disk.ResetCounters()
	e.Disk.DropCaches()
	e.Disk.SetPageCache(budget)
	mem := storage.NewMemory(e.Disk, budget)
	cache, err := memsim.NewCache(memsim.DefaultConfig(llc))
	if err != nil {
		return nil, err
	}

	res := &SchemeResult{Scheme: scheme, Jobs: len(w.Jobs), Cores: opts.cores()}
	start := time.Now()
	switch scheme {
	case SchemeS, SchemeC:
		// In C every job is active at once, each with its own copies,
		// whatever the submission delays: the OS time-slices them all.
		if err := runBaseline(gridgraph.NewRunner(e.Grid, mem, cache), scheme, w.Jobs); err != nil {
			return nil, err
		}
	case SchemeM:
		cfg := core.DefaultConfig(llc)
		cfg.Cores = opts.cores()
		cfg.Scheduler = !opts.SchedulerOff
		cfg.FineSync = !opts.FineSyncOff
		sys, err := core.NewSystem(e.Grid.AsLayout(), mem, cache, cfg)
		if err != nil {
			return nil, err
		}
		// System.Run admits the jobs on its simulated clock, so the rounds
		// they join, and every simulated number, do not depend on
		// GOMAXPROCS or the goroutine schedule.
		if err := sys.Run(w.Jobs); err != nil {
			return nil, err
		}
		st := sys.StatsSnapshot()
		res.SysStats = &st
	default:
		return nil, fmt.Errorf("bench: unknown scheme %q", scheme)
	}
	res.Wall = time.Since(start)

	collectJobMetrics(res, w.Jobs)
	res.MemPeak = mem.Peak()
	res.IOBytes = e.Disk.ReadBytes()
	res.IOLoads = e.Disk.ReadOps()
	res.SwappedBytes = cache.SwappedBytes()
	return res, nil
}

// RunArrivals runs a stamped workload under every scheme of Schemes, in
// order. wf builds the workload with its arrivals scaled to unitNS
// simulated nanoseconds per unit (a Poisson λ window, a trace hour); the
// unit is the S run's mean simulated job time (AvgJobSec). S runs first,
// with unit 0, and its result does not depend on arrivals. So λ reads as
// jobs per mean job duration, and one trace hour as one mean job.
func (e *GridEnv) RunArrivals(wf func(unitNS uint64) *jobs.Workload, opts RunOptions) ([]*SchemeResult, error) {
	var unitNS uint64
	out := make([]*SchemeResult, 0, len(Schemes))
	for _, scheme := range Schemes {
		res, err := e.RunScheme(scheme, func() *jobs.Workload { return wf(unitNS) }, opts)
		if err != nil {
			return nil, err
		}
		if scheme == SchemeS {
			unitNS = uint64(res.AvgJobSec() * 1e9)
		}
		out = append(out, res)
	}
	return out, nil
}

// Formatting helpers shared by the experiment runners.

func f2(v float64) string   { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string   { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string  { return fmt.Sprintf("%.1f%%", v*100) }
func mb(v int64) string     { return fmt.Sprintf("%.2fMB", float64(v)/(1<<20)) }
func mbu(v uint64) string   { return fmt.Sprintf("%.2fMB", float64(v)/(1<<20)) }
func human(v uint64) string { return fmt.Sprintf("%d", v) }
