package bench

import (
	"fmt"
	"time"

	"graphm/internal/core"
	"graphm/internal/graph"
	"graphm/internal/jobs"
	"graphm/internal/memsim"
	"graphm/internal/storage"
)

// ablation exercises the design choices DESIGN.md calls out:
//
//  1. chunk size: Formula (1) vs fixed-too-small vs fixed-too-large —
//     Section 3.2 argues both extremes lose (sync overhead vs LLC spill);
//  2. fine-grained synchronization on vs off while still sharing memory —
//     isolates the temporal-similarity (LLC) benefit from the
//     spatial-similarity (memory/I/O) benefit.
func (h *Harness) ablation() ([]*Table, error) {
	chunkT, err := h.ablateChunkSize()
	if err != nil {
		return nil, err
	}
	syncT, err := h.ablateFineSync()
	if err != nil {
		return nil, err
	}
	return []*Table{chunkT, syncT}, nil
}

func (h *Harness) ablateChunkSize() (*Table, error) {
	g, spec, err := graph.Dataset(graph.PresetTwitter)
	if err != nil {
		return nil, err
	}
	env, err := NewGridEnvFromGraph(g, spec)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation: chunk size (Twitter, 8 jobs under GraphM)",
		Headers: []string{"chunk sizing", "chunk bytes", "chunks", "LLC miss rate", "swapped", "sim s", "wall (sync cost)"},
	}
	// Formula (1) baseline plus forced extremes via LLC-size overrides that
	// feed the sizing formula, holding the *actual* simulated LLC fixed.
	configs := []struct {
		name     string
		override func(cfg *core.Config)
	}{
		{"formula(1)", func(cfg *core.Config) {}},
		{"too small (1/16)", func(cfg *core.Config) {
			cfg.LLCBytes = spec.LLCBytes / 16
			cfg.Reserved = cfg.LLCBytes / 8
		}},
		{"too large (16x)", func(cfg *core.Config) {
			cfg.LLCBytes = spec.LLCBytes * 16
			cfg.Reserved = cfg.LLCBytes / 8
		}},
	}
	for _, c := range configs {
		mem := storage.NewMemory(env.Disk, spec.MemBudget)
		cache, err := memsim.NewCache(memsim.DefaultConfig(spec.LLCBytes))
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig(spec.LLCBytes)
		cfg.Cores = h.Cores
		c.override(&cfg)
		sys, err := core.NewSystem(env.Grid.AsLayout(), mem, cache, cfg)
		if err != nil {
			return nil, err
		}
		w := jobs.Rotation(8, h.Seed)
		start := time.Now()
		if err := sys.Run(w.Jobs); err != nil {
			return nil, err
		}
		wall := time.Since(start)
		res := &SchemeResult{Scheme: SchemeM, Jobs: len(w.Jobs), Cores: h.Cores}
		collectJobMetrics(res, w.Jobs)
		res.SwappedBytes = cache.SwappedBytes()
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%d", sys.ChunkBytes()),
			fmt.Sprintf("%d", sys.StatsSnapshot().NumChunks),
			pct(res.LLCMissRate()),
			mbu(res.SwappedBytes),
			f3(res.MakespanSec()),
			wall.Round(time.Millisecond).String(),
		})
	}
	t.Notes = append(t.Notes,
		"Section 3.2: too small -> frequent synchronization (chunk count and wall time grow);",
		"too large -> a chunk spills the LLC (miss rate and swapped volume grow)")
	return t, nil
}

func (h *Harness) ablateFineSync() (*Table, error) {
	env, err := h.gridEnv(graph.PresetUKUnion)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Ablation: fine-grained synchronization (UK-union, %d jobs, buffers always shared)", h.JobCount),
		Headers: []string{"configuration", "LLC miss rate", "swapped", "makespan (sim s)"},
	}
	for _, mode := range []struct {
		name string
		off  bool
	}{{"share+sync (GraphM)", false}, {"share only (sync off)", true}} {
		res, err := env.RunScheme(SchemeM, func() *jobs.Workload {
			return jobs.Rotation(h.JobCount, h.Seed)
		}, RunOptions{Cores: h.Cores, FineSyncOff: mode.off})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			mode.name, pct(res.LLCMissRate()), mbu(res.SwappedBytes), f3(res.MakespanSec()),
		})
	}
	t.Notes = append(t.Notes, "sync exploits temporal similarity: chunks are reused in the LLC across jobs")
	return t, nil
}
