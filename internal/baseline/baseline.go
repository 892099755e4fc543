// Package baseline runs concurrent jobs the way the paper's baselines do,
// with no sharing, over any engine's native partition layout:
//
//   - RunSequential — the -S mode (GridGraph-S, GraphChi-S, ...): jobs run
//     strictly one after another, each enjoying the whole machine. Resident
//     partitions persist across jobs (the OS page cache effect the paper
//     notes for in-memory graphs).
//   - RunConcurrent — the -C mode: jobs run simultaneously, but each job
//     loads its *own* copy of every partition; the OS (here: the buffer
//     pool's LRU) arbitrates memory, reproducing Figure 1(a)'s redundant
//     copies.
//
// The engines differ only in what a load, a stream and an iteration cost
// them, which the Runner takes as fields. The GraphM-integrated mode (-M)
// is provided by internal/core over the same layouts.
package baseline

import (
	"fmt"

	"graphm/internal/core"
	"graphm/internal/engine"
	"graphm/internal/memsim"
	"graphm/internal/storage"
)

// Runner executes jobs over one engine's layout in the baseline modes.
type Runner struct {
	Layout core.Layout
	Mem    *storage.Memory
	Cache  *memsim.Cache
	Cost   engine.CostModel
	// Cores bounds the number of jobs streaming simultaneously in
	// RunConcurrent; zero means unbounded.
	Cores int
	// Stream registers one job's stream on the resource its loads contend
	// for and returns the function that ends it.
	Stream func() (stop func())
	// StreamsUpFront makes RunConcurrent register every job's stream before
	// any job steps, so contention is priced by how many jobs share the
	// resource rather than by how long they happen to overlap. Otherwise
	// each job registers its own stream while it runs.
	StreamsUpFront bool
	// LoadCost, if set, adds simulated I/O to every partition load,
	// resident or not. It has core.Config.LoadHook's signature; each job
	// loads its own copy, so it is called with one attendee.
	LoadCost func(diskBytes, attendees int) uint64
	// IterCost, if set, adds simulated I/O at the end of every iteration,
	// before the program's AfterIteration.
	IterCost func() uint64
}

// New returns a runner over layout with the default cost model whose jobs
// stream from mem's disk.
func New(layout core.Layout, mem *storage.Memory, cache *memsim.Cache) *Runner {
	return &Runner{
		Layout: layout,
		Mem:    mem,
		Cache:  cache,
		Cost:   engine.DefaultCostModel(),
		Stream: mem.Disk().StartStream,
	}
}

// RunSequential executes jobs one at a time (the -S mode).
func (r *Runner) RunSequential(jobs []*engine.Job) error {
	for _, j := range jobs {
		if err := r.runJob(j, false, r.Stream, func() bool { return true }); err != nil {
			return err
		}
	}
	return nil
}

// RunConcurrent executes all jobs simultaneously with per-job partition
// copies (the -C mode). The per-job buffer keys force the redundant loads
// the paper measures; Cores bounds simultaneous streamers.
// engine.Interleave time-slices the jobs one partition at a time.
func (r *Runner) RunConcurrent(jobs []*engine.Job) error {
	stream := r.Stream
	if r.StreamsUpFront {
		for range jobs {
			defer stream()()
		}
		stream = nil
	}
	runs := make([]func(yield func() bool) error, len(jobs))
	for i, j := range jobs {
		runs[i] = func(yield func() bool) error { return r.runJob(j, true, stream, yield) }
	}
	return engine.Interleave(r.Cores, runs)
}

// runJob is the StreamEdges loop of Figure 6(a): for each iteration, stream
// every partition with an active source vertex (GridGraph's
// should_access_shard; a partition spanning every source is skipped only
// when nothing is active). It yields after each partition while the job
// still holds its buffer, so the jobs interleaved with it step while its
// copy is resident, as concurrent processes' copies are. A non-nil stream
// is registered for the length of the job.
func (r *Runner) runJob(j *engine.Job, perJobCopy bool, stream func() func(), yield func() bool) error {
	j.Bind(r.Layout.Graph())
	state := j.Prog.StateBytes()
	j.StateBase = r.Mem.AllocAddr(state)
	r.Mem.ReserveJobData(state)
	defer r.Mem.ReserveJobData(-state)
	if stream != nil {
		defer stream()()
	}

	for iter := 0; j.Prog.BeforeIteration(iter); iter++ {
		for _, p := range r.Layout.Partitions() {
			if len(p.Edges) == 0 || !j.Prog.Active().AnyInRange(p.SrcLo, p.SrcHi) {
				continue
			}
			key := p.DiskName
			if perJobCopy {
				key = fmt.Sprintf("%s#job%d", p.DiskName, j.ID)
			}
			buf, io, err := r.Mem.Load(key, p.DiskName)
			if err != nil {
				return fmt.Errorf("baseline: job %d partition %d: %w", j.ID, p.ID, err)
			}
			if io != storage.IONone {
				base := float64(r.Cost.DiskNS(uint64(len(buf.Data))))
				if io == storage.IOReread {
					base *= r.Mem.Disk().Contention()
				}
				j.Met.SimIONS += uint64(base)
			}
			if r.LoadCost != nil {
				j.Met.SimIONS += r.LoadCost(len(buf.Data), 1)
			}
			j.Met.PartitionLoads++
			j.ApplyChunk(p.Edges, buf.BaseAddr, 0, r.Cache, r.Cost)
			yield()
			buf.Release()
		}
		if r.IterCost != nil {
			j.Met.SimIONS += r.IterCost()
		}
		j.Prog.AfterIteration(iter)
		j.Met.Iterations++
		j.Iter = iter + 1
	}
	j.Done = true
	return nil
}
