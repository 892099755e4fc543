package bench

import (
	"fmt"
	"time"

	"graphm/internal/core"
	"graphm/internal/graph"
	"graphm/internal/gridgraph"
	"graphm/internal/jobs"
	"graphm/internal/memsim"
	"graphm/internal/storage"
	"graphm/internal/trace"
)

// Table 3: preprocessing time of GridGraph alone vs GridGraph-M (grid build
// plus GraphM's Formula-1 sizing and Algorithm-1 labelling pass), with the
// extra metadata cost the paper discusses alongside.
func (h *Harness) table3() ([]*Table, error) {
	t := &Table{
		Title:   "Table 3: preprocessing time (ms) and GraphM metadata overhead",
		Headers: []string{"dataset", "GridGraph", "GridGraph-M", "overhead", "metadata", "meta/graph"},
	}
	for _, name := range graph.DatasetNames() {
		g, spec, err := graph.Dataset(name)
		if err != nil {
			return nil, err
		}
		// GridGraph preprocessing: grid conversion only.
		start := time.Now()
		if _, err := NewGridEnvFromGraph(g, spec); err != nil {
			return nil, err
		}
		gridMS := float64(time.Since(start).Microseconds()) / 1000

		// GridGraph-M: conversion plus Init() (chunk labelling).
		start = time.Now()
		grid2, err := NewGridEnvFromGraph(g, spec)
		if err != nil {
			return nil, err
		}
		mem := storage.NewMemory(grid2.Disk, spec.MemBudget)
		cache, err := memsim.NewCache(memsim.DefaultConfig(spec.LLCBytes))
		if err != nil {
			return nil, err
		}
		sys, err := core.NewSystem(grid2.Grid.AsLayout(), mem, cache, core.DefaultConfig(spec.LLCBytes))
		if err != nil {
			return nil, err
		}
		gridMMS := float64(time.Since(start).Microseconds()) / 1000
		meta := sys.StatsSnapshot().MetadataBytes
		t.Rows = append(t.Rows, []string{
			name, f2(gridMS), f2(gridMMS),
			pct(safeRatio(gridMMS-gridMS, gridMS)),
			mb(meta), pct(float64(meta) / float64(g.SizeBytes())),
		})
	}
	t.Notes = append(t.Notes,
		"paper: labelling adds ~4% (in-memory) to ~16.1% (out-of-core); metadata 5.5%-19.2% of graph size")
	return []*Table{t}, nil
}

// NewGridEnvFromGraph builds a GridEnv from an already generated graph
// (used by Table 3 to time the conversion in isolation).
func NewGridEnvFromGraph(g *graph.Graph, spec graph.DatasetSpec) (*GridEnv, error) {
	disk := storage.NewDisk()
	p := gridP(spec)
	grid, err := gridgraph.Build(g, p, disk)
	if err != nil {
		return nil, err
	}
	return &GridEnv{Spec: spec, G: g, Disk: disk, Grid: grid, GridP: p}, nil
}

// runOverall executes the 16-job rotation under all three schemes on every
// dataset, caching results for Figures 9–14.
func (h *Harness) runOverall() (map[string]map[string]*SchemeResult, error) {
	if h.overall != nil {
		return h.overall, nil
	}
	out := make(map[string]map[string]*SchemeResult)
	for _, name := range graph.DatasetNames() {
		env, err := h.gridEnv(name)
		if err != nil {
			return nil, err
		}
		out[name] = make(map[string]*SchemeResult)
		for _, scheme := range Schemes {
			res, err := env.RunScheme(scheme, func() *jobs.Workload {
				return jobs.Rotation(h.JobCount, h.Seed)
			}, RunOptions{Cores: h.Cores})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, scheme, err)
			}
			out[name][scheme] = res
		}
	}
	h.overall = out
	return out, nil
}

// overallTable renders one metric of the overall comparison across
// datasets and schemes, optionally normalised to scheme S.
func (h *Harness) overallTable(title string, metric func(*SchemeResult) float64, normalise bool, format func(float64) string) (*Table, error) {
	all, err := h.runOverall()
	if err != nil {
		return nil, err
	}
	t := &Table{Title: title, Headers: []string{"dataset", "GridGraph-S", "GridGraph-C", "GridGraph-M"}}
	for _, name := range graph.DatasetNames() {
		base := 1.0
		if normalise {
			base = metric(all[name][SchemeS])
		}
		row := []string{name}
		for _, scheme := range Schemes {
			v := metric(all[name][scheme])
			if normalise && base > 0 {
				v /= base
			}
			row = append(row, format(v))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure 9: total execution time of h.JobCount concurrent jobs (the
// paper's 16), normalised to GridGraph-S.
func (h *Harness) fig9() ([]*Table, error) {
	t, err := h.overallTable(
		fmt.Sprintf("Figure 9: total execution time for %d jobs (normalised to GridGraph-S)", h.JobCount),
		func(r *SchemeResult) float64 { return r.MakespanSec() }, true, f3)
	if err != nil {
		return nil, err
	}
	all, _ := h.runOverall()
	inMem, outCore := speedupSummary(all)
	t.Notes = append(t.Notes,
		fmt.Sprintf("GraphM speedup vs S: in-memory %.2fx avg, out-of-core %.2fx avg (paper: ~2.6x / ~11.6x)", inMem, outCore),
		"paper shape: M < C <= S in-memory; C > S out-of-core (contention)")
	return []*Table{t}, nil
}

func speedupSummary(all map[string]map[string]*SchemeResult) (inMem, outCore float64) {
	nIn, nOut := 0, 0
	for _, name := range graph.DatasetNames() {
		spec, _ := graph.Spec(name)
		s := all[name][SchemeS].MakespanSec()
		m := all[name][SchemeM].MakespanSec()
		if m <= 0 {
			continue
		}
		if spec.OutOfCore {
			outCore += s / m
			nOut++
		} else {
			inMem += s / m
			nIn++
		}
	}
	if nIn > 0 {
		inMem /= float64(nIn)
	}
	if nOut > 0 {
		outCore /= float64(nOut)
	}
	return inMem, outCore
}

// Figure 10: execution time breakdown — graph processing vs data access.
func (h *Harness) fig10() ([]*Table, error) {
	all, err := h.runOverall()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 10: execution time breakdown (ratio vs GridGraph-S total)",
		Headers: []string{"dataset", "scheme", "processing", "data access", "access share"},
	}
	for _, name := range graph.DatasetNames() {
		base := float64(all[name][SchemeS].ComputeNS+all[name][SchemeS].MemNS+all[name][SchemeS].IONS) / 1e9
		for _, scheme := range Schemes {
			r := all[name][scheme]
			proc := float64(r.ComputeNS) / 1e9
			acc := float64(r.MemNS+r.IONS) / 1e9
			t.Rows = append(t.Rows, []string{
				name, "GridGraph-" + scheme,
				f3(proc / base), f3(acc / base), pct(acc / (proc + acc)),
			})
		}
	}
	t.Notes = append(t.Notes, "paper: data access dominates; M cuts access up to 11-13x on out-of-core graphs")
	return []*Table{t}, nil
}

// Figure 11: peak memory usage, normalised to GridGraph-C.
func (h *Harness) fig11() ([]*Table, error) {
	t, err := h.overallTable(
		fmt.Sprintf("Figure 11: memory usage for %d jobs (normalised to GridGraph-C)", h.JobCount),
		func(r *SchemeResult) float64 { return float64(r.MemPeak) }, false,
		func(v float64) string { return mb(int64(v)) })
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf("paper shape: S < M < C (M shares one graph copy but keeps %d jobs' state resident)", h.JobCount))
	return []*Table{t}, nil
}

// Figure 12: total I/O overhead, normalised to GridGraph-S.
func (h *Harness) fig12() ([]*Table, error) {
	t, err := h.overallTable(
		fmt.Sprintf("Figure 12: total I/O overhead for %d jobs (normalised to GridGraph-S)", h.JobCount),
		func(r *SchemeResult) float64 { return float64(r.IOBytes) }, true, f3)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"paper: no difference in-memory (graph read once); out-of-core M ~9-10x less I/O, C > S")
	return []*Table{t}, nil
}

// Figure 13: LLC miss rate.
func (h *Harness) fig13() ([]*Table, error) {
	t, err := h.overallTable(
		fmt.Sprintf("Figure 13: LLC miss rate for %d jobs", h.JobCount),
		func(r *SchemeResult) float64 { return r.LLCMissRate() }, false, pct)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper: e.g. UK-union 45.3% (S) / 43.3% (C) / 15.69% (M)")
	return []*Table{t}, nil
}

// Figure 14: volume of data swapped into the LLC, normalised to GridGraph-C.
func (h *Harness) fig14() ([]*Table, error) {
	all, err := h.runOverall()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 14: volume swapped into the LLC (normalised to GridGraph-C)",
		Headers: []string{"dataset", "GridGraph-S", "GridGraph-C", "GridGraph-M"},
	}
	for _, name := range graph.DatasetNames() {
		base := float64(all[name][SchemeC].SwappedBytes)
		row := []string{name}
		for _, scheme := range Schemes {
			row = append(row, f3(float64(all[name][scheme].SwappedBytes)/base))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "paper: S ~65% of C; M ~55% of S on UK-union")
	return []*Table{t}, nil
}

// Figure 15: replay of the real trace (different job counts at different
// times) under the three schemes. One trace hour is one mean job duration
// (RunArrivals): the ~1 h jobs Figure 2's concurrency assumes.
func (h *Harness) fig15() ([]*Table, error) {
	tr := trace.Generate(168, h.Seed)
	t := &Table{
		Title:   "Figure 15: trace-replay execution time (normalised to GridGraph-S)",
		Headers: []string{"dataset", "GridGraph-S", "GridGraph-C", "GridGraph-M"},
	}
	for _, name := range graph.DatasetNames() {
		env, err := h.gridEnv(name)
		if err != nil {
			return nil, err
		}
		res, err := env.RunArrivals(func(hourNS uint64) *jobs.Workload {
			return jobs.FromTrace(tr, 24, hourNS)
		}, RunOptions{Cores: h.Cores})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, normalisedRow(name, res))
	}
	t.Notes = append(t.Notes, "paper: M improves S by 1.5-7.1x and C by 1.48-9.8x on the real trace")
	return []*Table{t}, nil
}

// normalisedRow is label followed by each result's makespan over the
// first's (S in RunArrivals' order).
func normalisedRow(label string, res []*SchemeResult) []string {
	row := []string{label}
	for _, r := range res {
		row = append(row, f3(r.MakespanSec()/res[0].MakespanSec()))
	}
	return row
}

// Figure 16: sensitivity to the Poisson submission rate λ on UK-union, in
// jobs per mean job duration (RunArrivals).
func (h *Harness) fig16() ([]*Table, error) {
	env, err := h.gridEnv(graph.PresetUKUnion)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 16: execution time vs submission rate lambda (UK-union, normalised to S)",
		Headers: []string{"lambda", "GridGraph-S", "GridGraph-C", "GridGraph-M"},
	}
	for _, lambda := range []float64{2, 4, 6, 8, 10} {
		// Arrival density only matters where jobs share state: scheme M,
		// whose sparse arrivals overlap less and so share fewer loads. S
		// queues the jobs and C runs them all at once, whatever the stamps.
		res, err := env.RunArrivals(func(unitNS uint64) *jobs.Workload {
			return jobs.Poisson(h.JobCount, lambda, unitNS, h.Seed)
		}, RunOptions{Cores: h.Cores})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, normalisedRow(fmt.Sprintf("%.0f", lambda), res))
	}
	t.Notes = append(t.Notes, "paper: higher lambda (denser arrivals) -> higher GraphM speedup")
	return []*Table{t}, nil
}

// Figure 17: 16 BFS or SSSP jobs with roots within k hops of a centre —
// closer roots mean stronger similarity and larger GraphM gains.
func (h *Harness) fig17() ([]*Table, error) {
	env, err := h.gridEnv(graph.PresetLiveJ)
	if err != nil {
		return nil, err
	}
	centre, _ := env.G.MaxOutDegree()
	var tables []*Table
	for _, algo := range []string{"bfs", "sssp"} {
		t := &Table{
			Title:   fmt.Sprintf("Figure 17 (%s): execution time vs root spread in hops (normalised to S)", algo),
			Headers: []string{"hops", "GridGraph-S", "GridGraph-C", "GridGraph-M"},
		}
		for hops := 1; hops <= 5; hops++ {
			var base float64
			row := []string{fmt.Sprintf("%d", hops)}
			for _, scheme := range Schemes {
				res, err := env.RunScheme(scheme, func() *jobs.Workload {
					return jobs.HopConstrained(algo, h.JobCount, env.G, centre, hops, h.Seed)
				}, RunOptions{Cores: h.Cores})
				if err != nil {
					return nil, err
				}
				v := res.MakespanSec()
				if scheme == SchemeS {
					base = v
				}
				row = append(row, f3(v/base))
			}
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes, "paper: closer roots (fewer hops) -> stronger similarity -> higher speedup")
		tables = append(tables, t)
	}
	return tables, nil
}

// Figure 18: the Section 4 scheduling strategy on vs off.
func (h *Harness) fig18() ([]*Table, error) {
	t := &Table{
		Title:   "Figure 18: total execution time without/with the scheduling strategy (normalised to without)",
		Headers: []string{"dataset", "GridGraph-M-without", "GridGraph-M"},
	}
	for _, name := range graph.DatasetNames() {
		env, err := h.gridEnv(name)
		if err != nil {
			return nil, err
		}
		wf := func() *jobs.Workload { return jobs.Rotation(h.JobCount, h.Seed) }
		without, err := env.RunScheme(SchemeM, wf, RunOptions{Cores: h.Cores, SchedulerOff: true})
		if err != nil {
			return nil, err
		}
		with, err := env.RunScheme(SchemeM, wf, RunOptions{Cores: h.Cores})
		if err != nil {
			return nil, err
		}
		base := without.MakespanSec()
		t.Rows = append(t.Rows, []string{name, "1.000", f3(with.MakespanSec() / base)})
	}
	t.Notes = append(t.Notes, "paper: with-scheduler is ~72.5% of without on Clueweb12")
	return []*Table{t}, nil
}

// Figure 19: scaling the number of concurrent PageRank jobs on Clueweb.
func (h *Harness) fig19() ([]*Table, error) {
	env, err := h.gridEnv(graph.PresetClueweb)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 19: total execution time vs number of PageRank jobs (Clueweb, sim s)",
		Headers: []string{"jobs", "GridGraph-S", "GridGraph-C", "GridGraph-M", "M speedup vs S"},
	}
	for _, n := range []int{1, 2, 4, 8, 16} {
		row := []string{fmt.Sprintf("%d", n)}
		var sSec, mSec float64
		for _, scheme := range Schemes {
			res, err := env.RunScheme(scheme, func() *jobs.Workload {
				return jobs.RotationOf("pagerank", n, h.Seed)
			}, RunOptions{Cores: h.Cores})
			if err != nil {
				return nil, err
			}
			v := res.MakespanSec()
			switch scheme {
			case SchemeS:
				sSec = v
			case SchemeM:
				mSec = v
			}
			row = append(row, f3(v))
		}
		row = append(row, f2(sSec/mSec))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "paper: speedups 1.79/3.04/4.92/5.94 at 2/4/8/16 jobs; ~1x at a single job")
	return []*Table{t}, nil
}

// Figure 20: scaling the number of cores with h.JobCount jobs on Twitter.
func (h *Harness) fig20() ([]*Table, error) {
	env, err := h.gridEnv(graph.PresetTwitter)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 20: total execution time vs number of cores (Twitter, %d jobs, sim s)", h.JobCount),
		Headers: []string{"cores", "GridGraph-S", "GridGraph-C", "GridGraph-M"},
	}
	for _, cores := range []int{1, 2, 4, 8, 16} {
		row := []string{fmt.Sprintf("%d", cores)}
		for _, scheme := range Schemes {
			res, err := env.RunScheme(scheme, func() *jobs.Workload {
				return jobs.Rotation(h.JobCount, h.Seed)
			}, RunOptions{Cores: cores})
			if err != nil {
				return nil, err
			}
			row = append(row, f3(res.MakespanSec()))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "paper: M best at every core count, gap widens with more cores")
	return []*Table{t}, nil
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
