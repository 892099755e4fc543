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

	"graphm/internal/baseline"
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

// syncNS prices one job's replica synchronisation, which commits each
// superstep; each node's NIC carries its own mirrors' traffic in parallel.
func (p *Partitioned) syncNS(net *cluster.Network) uint64 {
	return net.TransferNS(p.SyncBytesPerIteration()) / uint64(len(p.Group))
}

// NewRunner runs jobs on the partitioned graph as PowerGraph-S and
// PowerGraph-C, over the group's distributed shared memory mem. In
// PowerGraph-C every job's stream is registered with the network up front
// (see chaos.NewRunner). Each iteration pays its replica synchronisation.
func NewRunner(p *Partitioned, net *cluster.Network, mem *storage.Memory, cache *memsim.Cache) *baseline.Runner {
	r := baseline.New(p.AsLayout(), mem, cache)
	r.Stream, r.StreamsUpFront = net.StartStream, true
	r.IterCost = func() uint64 { return p.syncNS(net) }
	return r
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
		sp.Job.Met.SimIONS += sp.P.syncNS(sp.Net)
	}
}
