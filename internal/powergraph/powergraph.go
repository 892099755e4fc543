// Package powergraph implements a PowerGraph-style engine substrate
// (Gonzalez et al., OSDI'12) over the simulated cluster: edges are
// vertex-cut across the nodes of a group, each node holding a CSR-ordered
// fragment; vertices incident to edges on multiple nodes have replicas that
// must synchronise over the network after every iteration — the
// gather/apply/scatter commit traffic that dominates PowerGraph's
// distributed cost.
package powergraph

import (
	"fmt"

	"graphm/internal/cluster"
	"graphm/internal/core"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/memsim"
	"graphm/internal/storage"
)

// Fragment is one node's share of the vertex-cut edge set.
type Fragment struct {
	Node     *cluster.Node
	ID       int
	Edges    []graph.Edge
	DiskName string
}

// Partitioned is a graph vertex-cut across one group of nodes.
type Partitioned struct {
	G     *graph.Graph
	Group []*cluster.Node
	Frags []*Fragment

	// Replicas is the total number of (vertex, node) placements; the
	// replication factor is Replicas / |V present|. Per-iteration sync
	// traffic is proportional to Replicas - Masters.
	Replicas uint64
	Masters  uint64
}

// Build vertex-cuts g across the group's nodes (greedy hash placement, the
// "random vertex-cut" PowerGraph defaults to) and writes fragment blobs to
// each node's disk.
func Build(g *graph.Graph, group []*cluster.Node) (*Partitioned, error) {
	if len(group) == 0 {
		return nil, fmt.Errorf("powergraph: empty node group")
	}
	n := len(group)
	buckets := make([][]graph.Edge, n)
	for _, e := range g.Edges {
		// Hash an edge by its endpoints so both endpoints' edges spread.
		h := (uint64(e.Src)*2654435761 + uint64(e.Dst)*40503) % uint64(n)
		buckets[h] = append(buckets[h], e)
	}
	p := &Partitioned{G: g, Group: group}
	present := make(map[graph.VertexID]map[int]bool)
	for i, node := range group {
		f := &Fragment{
			Node:     node,
			ID:       i,
			Edges:    buckets[i],
			DiskName: fmt.Sprintf("%s/pg/frag%d", g.Name, i),
		}
		node.Disk.Write(f.DiskName, graph.EncodeEdges(f.Edges))
		p.Frags = append(p.Frags, f)
		for _, e := range buckets[i] {
			for _, v := range [2]graph.VertexID{e.Src, e.Dst} {
				m := present[v]
				if m == nil {
					m = make(map[int]bool)
					present[v] = m
				}
				m[i] = true
			}
		}
	}
	for range present {
		p.Masters++
	}
	for _, m := range present {
		p.Replicas += uint64(len(m))
	}
	return p, nil
}

// SyncBytesPerIteration is the replica-synchronisation traffic of one
// iteration of one job: every mirror exchanges its accumulator with the
// master and receives the committed value (2 transfers of the 8-byte
// vertex payload).
func (p *Partitioned) SyncBytesPerIteration() uint64 {
	mirrors := p.Replicas - p.Masters
	return mirrors * 2 * 8
}

// ReplicationFactor returns the average number of replicas per vertex.
func (p *Partitioned) ReplicationFactor() float64 {
	if p.Masters == 0 {
		return 0
	}
	return float64(p.Replicas) / float64(p.Masters)
}

// AsLayout exposes the fragments to GraphM as partitions, one per node.
// PowerGraph has no source-range structure, so fragments cover the full
// vertex range (no fragment skipping — matching GAS engines, which visit
// every machine each superstep).
func (p *Partitioned) AsLayout() core.Layout {
	parts := make([]*core.Partition, 0, len(p.Frags))
	for _, f := range p.Frags {
		parts = append(parts, &core.Partition{
			ID:       f.ID,
			SrcLo:    0,
			SrcHi:    p.G.NumV,
			DiskName: f.DiskName,
			Edges:    f.Edges,
		})
	}
	return core.NewLayout(p.G, parts)
}

// SharedMemory builds a storage.Memory view backed by the group's first
// node's disk, with the *sum* of the group's memory budgets — the
// distributed shared memory the paper describes ("the graph is only loaded
// into the distributed shared memory consisting of the memory of this
// group of nodes"). Fragment blobs are mirrored onto it so GraphM can load
// any fragment.
func (p *Partitioned) SharedMemory(perNodeBudget int64) *storage.Memory {
	disk := storage.NewDisk()
	for _, f := range p.Frags {
		disk.Write(f.DiskName, graph.EncodeEdges(f.Edges))
	}
	total := perNodeBudget * int64(len(p.Group))
	disk.SetPageCache(total)
	return storage.NewMemory(disk, total)
}

// Runner executes jobs on a partitioned graph in the baseline modes.
type Runner struct {
	P     *Partitioned
	Net   *cluster.Network
	Cache *memsim.Cache
	Cost  engine.CostModel
	// Mem is the distributed shared memory of the group.
	Mem *storage.Memory
}

// NewRunner wires a baseline runner.
func NewRunner(p *Partitioned, net *cluster.Network, mem *storage.Memory, cache *memsim.Cache) *Runner {
	return &Runner{P: p, Net: net, Mem: mem, Cache: cache, Cost: engine.DefaultCostModel()}
}

// RunSequential executes jobs one at a time (PowerGraph-S).
func (r *Runner) RunSequential(jobs []*engine.Job) error {
	for _, j := range jobs {
		stop := r.Net.StartStream()
		err := r.runJob(j, false, func() bool { return true })
		stop()
		if err != nil {
			return err
		}
	}
	return nil
}

// RunConcurrent executes jobs simultaneously with per-job fragment copies
// in the distributed shared memory (PowerGraph-C), time-sliced one fragment
// at a time by engine.Interleave. As in the chaos runner, every stream is
// registered with the network up front so contention is priced by how many
// jobs share the link.
func (r *Runner) RunConcurrent(jobs []*engine.Job) error {
	stops := make([]func(), len(jobs))
	for i := range jobs {
		stops[i] = r.Net.StartStream()
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	runs := make([]func(yield func() bool) error, len(jobs))
	for i, j := range jobs {
		runs[i] = func(yield func() bool) error { return r.runJob(j, true, yield) }
	}
	return engine.Interleave(0, runs)
}

// runJob streams every fragment once per iteration. It yields after each
// fragment while the job still holds its buffer (see gridgraph's runJob).
func (r *Runner) runJob(j *engine.Job, perJobCopy bool, yield func() bool) error {
	j.Bind(r.P.G)
	state := j.Prog.StateBytes()
	j.StateBase = r.Mem.AllocAddr(state)
	r.Mem.ReserveJobData(state)
	defer r.Mem.ReserveJobData(-state)

	sync := r.P.SyncBytesPerIteration()
	for iter := 0; j.Prog.BeforeIteration(iter); iter++ {
		for _, f := range r.P.Frags {
			if len(f.Edges) == 0 {
				continue
			}
			key := f.DiskName
			if perJobCopy {
				key = fmt.Sprintf("%s#job%d", f.DiskName, j.ID)
			}
			buf, io, err := r.Mem.Load(key, f.DiskName)
			if err != nil {
				return fmt.Errorf("powergraph: job %d fragment %d: %w", j.ID, f.ID, err)
			}
			if io != storage.IONone {
				j.Met.SimIONS += r.Cost.DiskNS(uint64(len(buf.Data)))
			}
			j.Met.PartitionLoads++
			j.ApplyChunk(f.Edges, buf.BaseAddr, 0, r.Cache, r.Cost)
			yield()
			buf.Release()
		}
		// Replica synchronisation commits the superstep; each node's NIC
		// carries its own mirrors' traffic in parallel.
		j.Met.SimIONS += r.Net.TransferNS(sync) / uint64(len(r.P.Group))
		j.Prog.AfterIteration(iter)
		j.Met.Iterations++
		j.Iter = iter + 1
	}
	j.Done = true
	return nil
}

// SyncProgram decorates a Program so that every iteration additionally pays
// the replica-synchronisation network cost; used for the GraphM-integrated
// mode where internal/core drives the program but network traffic remains
// per-job (each job commits its own accumulators).
type SyncProgram struct {
	engine.Program
	Job *engine.Job
	Net *cluster.Network
	P   *Partitioned
}

// AfterIteration implements engine.Program.
func (sp *SyncProgram) AfterIteration(iter int) {
	sp.Program.AfterIteration(iter)
	if sp.Job != nil && sp.Net != nil {
		sp.Job.Met.SimIONS += sp.Net.TransferNS(sp.P.SyncBytesPerIteration()) / uint64(len(sp.P.Group))
	}
}
