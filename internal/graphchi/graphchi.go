// Package graphchi implements a GraphChi-style engine substrate (Kyrola et
// al., OSDI'12): the vertex range is split into P intervals and the edges
// into P shards, shard i holding every edge whose destination falls in
// interval i, sorted by destination (the order the parallel-sliding-windows
// method stores them in).
//
// Unlike GridGraph, a shard mixes sources from the whole vertex range, so
// shard-level selective scheduling is impossible — a shard must be streamed
// whenever *any* vertex is active. This is why GraphChi trails GridGraph on
// frontier algorithms in the paper's Table 4, a shape this substrate
// reproduces.
package graphchi

import (
	"fmt"

	"graphm/internal/core"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/memsim"
	"graphm/internal/storage"
)

// Shard holds the edges destined for one vertex interval, dst-sorted.
type Shard struct {
	ID           int
	DstLo, DstHi int
	Edges        []graph.Edge
	DiskName     string
}

// Shards is the preprocessed shard representation of one graph.
type Shards struct {
	Name string
	G    *graph.Graph
	P    int
	VPI  int // vertices per interval
	All  []*Shard
}

// Build splits g into p destination-interval shards and writes the blobs.
func Build(g *graph.Graph, p int, disk *storage.Disk) (*Shards, error) {
	if p <= 0 {
		return nil, fmt.Errorf("graphchi: P must be positive, got %d", p)
	}
	vpi := (g.NumV + p - 1) / p
	s := &Shards{Name: g.Name, G: g, P: p, VPI: vpi}
	sorted := g.SortedByDst()
	buckets := make([][]graph.Edge, p)
	for _, e := range sorted {
		buckets[int(e.Dst)/vpi] = append(buckets[int(e.Dst)/vpi], e)
	}
	for i := 0; i < p; i++ {
		sh := &Shard{
			ID:       i,
			DstLo:    i * vpi,
			DstHi:    minInt((i+1)*vpi, g.NumV),
			Edges:    buckets[i],
			DiskName: fmt.Sprintf("%s/shard/s%d", g.Name, i),
		}
		disk.Write(sh.DiskName, graph.EncodeEdges(sh.Edges))
		s.All = append(s.All, sh)
	}
	return s, nil
}

// AsLayout exposes the shards to GraphM. Sources span the whole range, so
// SrcLo/SrcHi cover all vertices: GraphM will treat a shard as active for a
// job whenever the job has any active vertex, which is exactly GraphChi's
// (lack of) shard skipping.
func (s *Shards) AsLayout() core.Layout {
	parts := make([]*core.Partition, 0, len(s.All))
	for _, sh := range s.All {
		parts = append(parts, &core.Partition{
			ID:       sh.ID,
			SrcLo:    0,
			SrcHi:    s.G.NumV,
			DiskName: sh.DiskName,
			Edges:    sh.Edges,
		})
	}
	return core.NewLayout(s.G, parts)
}

// Runner executes jobs over shards in the baseline modes (GraphChi-S / -C).
type Runner struct {
	Shards *Shards
	Mem    *storage.Memory
	Cache  *memsim.Cache
	Cost   engine.CostModel
	Cores  int
}

// NewRunner wires a runner with the default cost model.
func NewRunner(s *Shards, mem *storage.Memory, cache *memsim.Cache) *Runner {
	return &Runner{Shards: s, Mem: mem, Cache: cache, Cost: engine.DefaultCostModel()}
}

// RunSequential executes jobs one at a time (GraphChi-S).
func (r *Runner) RunSequential(jobs []*engine.Job) error {
	for _, j := range jobs {
		if err := r.runJob(j, func(sh *Shard) string { return sh.DiskName }, func() bool { return true }); err != nil {
			return err
		}
	}
	return nil
}

// RunConcurrent executes jobs simultaneously with per-job copies
// (GraphChi-C), time-sliced one shard at a time by engine.Interleave; Cores
// bounds simultaneous streamers.
func (r *Runner) RunConcurrent(jobs []*engine.Job) error {
	runs := make([]func(yield func() bool) error, len(jobs))
	for i, j := range jobs {
		key := func(sh *Shard) string { return fmt.Sprintf("%s#job%d", sh.DiskName, j.ID) }
		runs[i] = func(yield func() bool) error { return r.runJob(j, key, yield) }
	}
	return engine.Interleave(r.Cores, runs)
}

// runJob streams every shard once per iteration. It yields after each shard
// while the job still holds its buffer (see gridgraph's runJob).
func (r *Runner) runJob(j *engine.Job, keyFn func(sh *Shard) string, yield func() bool) error {
	j.Bind(r.Shards.G)
	state := j.Prog.StateBytes()
	j.StateBase = r.Mem.AllocAddr(state)
	r.Mem.ReserveJobData(state)
	defer r.Mem.ReserveJobData(-state)
	stopStream := r.Mem.Disk().StartStream()
	defer stopStream()

	for iter := 0; j.Prog.BeforeIteration(iter); iter++ {
		// No shard skipping: every shard streams if anything is active.
		for _, sh := range r.Shards.All {
			if len(sh.Edges) == 0 {
				continue
			}
			buf, io, err := r.Mem.Load(keyFn(sh), sh.DiskName)
			if err != nil {
				return fmt.Errorf("graphchi: job %d shard %d: %w", j.ID, sh.ID, err)
			}
			if io != storage.IONone {
				base := float64(r.Cost.DiskNS(uint64(len(buf.Data))))
				if io == storage.IOReread {
					base *= r.Mem.Disk().Contention()
				}
				j.Met.SimIONS += uint64(base)
			}
			j.Met.PartitionLoads++
			j.ApplyChunk(sh.Edges, buf.BaseAddr, 0, r.Cache, r.Cost)
			yield()
			buf.Release()
		}
		j.Prog.AfterIteration(iter)
		j.Met.Iterations++
		j.Iter = iter + 1
	}
	j.Done = true
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
