package bench

import (
	"fmt"

	"graphm/internal/baseline"
	"graphm/internal/chaos"
	"graphm/internal/cluster"
	"graphm/internal/core"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/graphchi"
	"graphm/internal/jobs"
	"graphm/internal/memsim"
	"graphm/internal/powergraph"
	"graphm/internal/storage"
)

// Distributed experiments. The paper runs PowerGraph and Chaos on a
// 128-node 1-GbE cluster; the simulated cluster scales node counts by 8
// (8 simulated nodes stand in for 64, 16 for 128) to keep per-run cost
// sensible while preserving the compute/communication ratio trends.

const nodeScale = 8

// runDistScheme executes one scheme of one distributed engine over a node
// group and returns aggregated metrics.
func (h *Harness) runDistScheme(engineName, dataset, scheme string, nodes int, jobCount int) (*SchemeResult, error) {
	g, spec, err := graph.Dataset(dataset)
	if err != nil {
		return nil, err
	}
	// The paper's cluster nodes each match the single-machine testbed
	// (32 GB); a group's distributed shared memory comfortably holds the
	// graph and the jobs' copies, unlike the deliberately starved
	// out-of-core single-machine budgets. Scale per-node memory up so the
	// distributed baselines are network-bound, not artificially swapping.
	perNode := spec.MemBudget * 8
	cl, err := cluster.New(nodes, perNode)
	if err != nil {
		return nil, err
	}
	cache, err := memsim.NewCache(memsim.DefaultConfig(spec.LLCBytes))
	if err != nil {
		return nil, err
	}
	w := jobs.Rotation(jobCount, h.Seed)
	res := &SchemeResult{Scheme: scheme, Jobs: jobCount, Cores: nodes}

	var mem *storage.Memory
	switch engineName {
	case "powergraph":
		p, err := powergraph.Build(g, cl.Nodes)
		if err != nil {
			return nil, err
		}
		mem = p.SharedMemory(perNode)
		switch scheme {
		case SchemeS, SchemeC:
			err = runBaseline(powergraph.NewRunner(p, cl.Net, mem, cache), scheme, w.Jobs)
		case SchemeM:
			cfg := core.DefaultConfig(spec.LLCBytes)
			cfg.Cores = nodes
			sys, serr := core.NewSystem(p.AsLayout(), mem, cache, cfg)
			if serr != nil {
				return nil, serr
			}
			// Replica sync stays per job per iteration under GraphM.
			for _, j := range w.Jobs {
				j.Prog = &powergraph.SyncProgram{Program: j.Prog, Job: j, Net: cl.Net, P: p}
			}
			err = sys.Run(w.Jobs)
		}
		if err != nil {
			return nil, err
		}
	case "chaos":
		s, err := chaos.Build(g, cl.Nodes, 4)
		if err != nil {
			return nil, err
		}
		mem = s.SharedMemory(perNode)
		switch scheme {
		case SchemeS, SchemeC:
			err = runBaseline(chaos.NewRunner(s, cl.Net, mem, cache), scheme, w.Jobs)
		case SchemeM:
			cfg := core.DefaultConfig(spec.LLCBytes)
			cfg.Cores = nodes
			cfg.LoadHook = s.LoadHook(cl.Net)
			sys, serr := core.NewSystem(s.AsLayout(), mem, cache, cfg)
			if serr != nil {
				return nil, serr
			}
			err = sys.Run(w.Jobs)
		}
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("bench: unknown distributed engine %q", engineName)
	}

	collectJobMetrics(res, w.Jobs)
	res.MemPeak = mem.Peak()
	res.SwappedBytes = cache.SwappedBytes()
	return res, nil
}

// runBaseline runs js on r in the unshared mode scheme names: SchemeS runs
// them one after another, SchemeC all at once with per-job copies.
func runBaseline(r *baseline.Runner, scheme string, js []*engine.Job) error {
	if scheme == SchemeS {
		return r.RunSequential(js)
	}
	return r.RunConcurrent(js)
}

func collectJobMetrics(res *SchemeResult, js []*engine.Job) {
	for _, j := range js {
		res.ComputeNS += j.Met.SimComputeNS
		res.MemNS += j.Met.SimMemNS
		res.IONS += j.Met.SimIONS
		res.ScannedEdges += j.Met.ScannedEdges
		res.ProcessedEdges += j.Met.ProcessedEdges
		res.LLCMisses += j.Ctr.Misses
		res.LLCHits += j.Ctr.Hits
		res.LPI += j.Ctr.LPI()
	}
	if len(js) > 0 {
		res.LPI /= float64(len(js))
	}
}

// runGraphChiScheme executes GraphChi-S/-C/-M on a single-machine dataset.
func (h *Harness) runGraphChiScheme(dataset, scheme string, jobCount int) (*SchemeResult, error) {
	g, spec, err := graph.Dataset(dataset)
	if err != nil {
		return nil, err
	}
	disk := storage.NewDisk()
	shards, err := graphchi.Build(g, gridP(spec), disk)
	if err != nil {
		return nil, err
	}
	disk.SetPageCache(spec.MemBudget)
	mem := storage.NewMemory(disk, spec.MemBudget)
	cache, err := memsim.NewCache(memsim.DefaultConfig(spec.LLCBytes))
	if err != nil {
		return nil, err
	}
	w := jobs.Rotation(jobCount, h.Seed)
	res := &SchemeResult{Scheme: scheme, Jobs: jobCount, Cores: h.Cores}
	switch scheme {
	case SchemeS, SchemeC:
		r := graphchi.NewRunner(shards, mem, cache)
		r.Cores = h.Cores
		err = runBaseline(r, scheme, w.Jobs)
	case SchemeM:
		cfg := core.DefaultConfig(spec.LLCBytes)
		cfg.Cores = h.Cores
		sys, serr := core.NewSystem(shards.AsLayout(), mem, cache, cfg)
		if serr != nil {
			return nil, serr
		}
		err = sys.Run(w.Jobs)
	default:
		err = fmt.Errorf("bench: unknown scheme %q", scheme)
	}
	if err != nil {
		return nil, err
	}
	collectJobMetrics(res, w.Jobs)
	res.MemPeak = mem.Peak()
	res.IOBytes = disk.ReadBytes()
	res.SwappedBytes = cache.SwappedBytes()
	return res, nil
}

// Figure 21: scaling out PowerGraph and Chaos from 64 to 128 nodes
// (simulated at 8–16) on UK-union, speedup relative to the engine's -S at
// the smallest node count.
func (h *Harness) fig21() ([]*Table, error) {
	var tables []*Table
	jobCount := h.JobCount // paper uses 64 jobs on 64-128 nodes; scaled
	for _, eng := range []string{"powergraph", "chaos"} {
		t := &Table{
			Title: fmt.Sprintf("Figure 21 (%s): speedup vs nodes (UK-union, %d jobs; node counts = paper/8)",
				eng, jobCount),
			Headers: []string{"nodes(paper)", eng + "-S", eng + "-C", eng + "-M"},
		}
		var base float64
		for _, nodes := range []int{8, 10, 12, 14, 16} {
			row := []string{fmt.Sprintf("%d(%d)", nodes, nodes*nodeScale)}
			for _, scheme := range Schemes {
				res, err := h.runDistScheme(eng, graph.PresetUKUnion, scheme, nodes, jobCount)
				if err != nil {
					return nil, err
				}
				v := res.MakespanSec()
				if scheme == SchemeS && base == 0 {
					base = v
				}
				row = append(row, f2(base/v))
			}
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes, "paper: -M scales best with node count (less communication per useful byte)")
		tables = append(tables, t)
	}
	return tables, nil
}

// Table 4: GraphChi, PowerGraph and Chaos integrated with GraphM across all
// datasets (the paper runs 64 jobs; scaled to the harness job count).
func (h *Harness) table4() ([]*Table, error) {
	jobCount := h.JobCount
	t := &Table{
		Title:   fmt.Sprintf("Table 4: execution time (sim s) for %d jobs on other systems", jobCount),
		Headers: []string{"system", "livej", "orkut", "twitter", "uk-union", "clueweb"},
	}
	type runner func(dataset, scheme string) (*SchemeResult, error)
	engines := []struct {
		name string
		run  runner
	}{
		{"GraphChi", func(ds, sc string) (*SchemeResult, error) { return h.runGraphChiScheme(ds, sc, jobCount) }},
		{"PowerGraph", func(ds, sc string) (*SchemeResult, error) {
			return h.runDistScheme("powergraph", ds, sc, 8, jobCount)
		}},
		{"Chaos", func(ds, sc string) (*SchemeResult, error) {
			return h.runDistScheme("chaos", ds, sc, 8, jobCount)
		}},
	}
	for _, eng := range engines {
		for _, scheme := range Schemes {
			row := []string{eng.name + "-" + scheme}
			for _, ds := range graph.DatasetNames() {
				res, err := eng.run(ds, scheme)
				if err != nil {
					return nil, err
				}
				row = append(row, f2(res.MakespanSec()))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: every engine speeds up with -M; Chaos-C slower than Chaos-S (network contention)",
		"GraphChi slowest overall (no shard skipping); PowerGraph fastest baseline")
	return []*Table{t}, nil
}
