package gridgraph

import (
	"fmt"

	"graphm/internal/engine"
	"graphm/internal/memsim"
	"graphm/internal/storage"
)

// Runner executes jobs over a Grid in the two baseline modes of the paper's
// evaluation:
//
//   - RunSequential — GridGraph-S: jobs run strictly one after another, each
//     enjoying the whole machine. Resident partitions persist across jobs (the
//     OS page cache effect the paper notes for in-memory graphs).
//   - RunConcurrent — GridGraph-C: jobs run simultaneously, but each job loads
//     its *own* copy of every partition; the OS (here: the buffer pool's LRU)
//     arbitrates memory, reproducing Figure 1(a)'s redundant copies.
//
// The GraphM-integrated mode (GridGraph-M) is provided by internal/core.
type Runner struct {
	Grid  *Grid
	Mem   *storage.Memory
	Cache *memsim.Cache
	Cost  engine.CostModel
	// Cores bounds the number of jobs streaming simultaneously in
	// RunConcurrent; zero means unbounded.
	Cores int
}

// NewRunner wires a runner with the default cost model.
func NewRunner(grid *Grid, mem *storage.Memory, cache *memsim.Cache) *Runner {
	return &Runner{Grid: grid, Mem: mem, Cache: cache, Cost: engine.DefaultCostModel()}
}

// RunSequential executes jobs one at a time (GridGraph-S).
func (r *Runner) RunSequential(jobs []*engine.Job) error {
	for _, j := range jobs {
		if err := r.runJob(j, func(p *Partition) string { return p.DiskName }, func() bool { return true }); err != nil {
			return err
		}
	}
	return nil
}

// RunConcurrent executes all jobs simultaneously with per-job graph copies
// (GridGraph-C). The per-job buffer keys force the redundant loads the paper
// measures; Cores bounds simultaneous streamers. engine.Interleave
// time-slices the jobs one partition at a time.
func (r *Runner) RunConcurrent(jobs []*engine.Job) error {
	runs := make([]func(yield func() bool) error, len(jobs))
	for i, j := range jobs {
		key := func(p *Partition) string { return fmt.Sprintf("%s#job%d", p.DiskName, j.ID) }
		runs[i] = func(yield func() bool) error { return r.runJob(j, key, yield) }
	}
	return engine.Interleave(r.Cores, runs)
}

// runJob is the StreamEdges loop of Figure 6(a): for each iteration, stream
// every active partition, skipping blocks with no active source vertex. It
// yields after each partition while the job still holds its buffer, so the
// jobs interleaved with it step while its copy is resident, as concurrent
// processes' copies are.
func (r *Runner) runJob(j *engine.Job, keyFn func(p *Partition) string, yield func() bool) error {
	j.Bind(r.Grid.G)
	state := j.Prog.StateBytes()
	j.StateBase = r.Mem.AllocAddr(state)
	r.Mem.ReserveJobData(state)
	defer r.Mem.ReserveJobData(-state)
	stopStream := r.Mem.Disk().StartStream()
	defer stopStream()

	for iter := 0; j.Prog.BeforeIteration(iter); iter++ {
		for _, p := range r.Grid.Parts {
			if len(p.Edges) == 0 {
				continue
			}
			// Selective scheduling: GridGraph's should_access_shard.
			if !j.Prog.Active().AnyInRange(p.SrcLo, p.SrcHi) {
				continue
			}
			buf, io, err := r.Mem.Load(keyFn(p), p.DiskName)
			if err != nil {
				return fmt.Errorf("gridgraph: job %d partition %d: %w", j.ID, p.ID, err)
			}
			if io != storage.IONone {
				base := float64(r.Cost.DiskNS(uint64(len(buf.Data))))
				if io == storage.IOReread {
					base *= r.Mem.Disk().Contention()
				}
				j.Met.SimIONS += uint64(base)
			}
			j.Met.PartitionLoads++
			j.ApplyChunk(p.Edges, buf.BaseAddr, 0, r.Cache, r.Cost)
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
