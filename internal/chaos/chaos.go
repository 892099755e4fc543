// Package chaos implements a Chaos-style engine substrate (Roy et al.,
// SOSP'15) over the simulated cluster: the edge list is split into flat
// chunks scattered round-robin across the group's storage, and computation
// streams *all* edges over the network every iteration — Chaos trades
// locality for scale-out simplicity, so its cost is dominated by network
// streaming bandwidth.
//
// This substrate reproduces the paper's Table 4 shape for Chaos: the
// concurrent baseline (-C) is *slower* than sequential (-S) because
// concurrent jobs re-stream the same edge chunks and contend on the NIC,
// while the GraphM-integrated mode streams each chunk once per round for
// all jobs.
package chaos

import (
	"fmt"

	"graphm/internal/baseline"
	"graphm/internal/cluster"
	"graphm/internal/core"
	"graphm/internal/graph"
	"graphm/internal/memsim"
	"graphm/internal/storage"
)

// Chunk is one scattered slice of the global edge list.
type Chunk struct {
	Node     *cluster.Node
	ID       int
	Edges    []graph.Edge
	DiskName string
}

// Scattered is a graph spread over one group of nodes.
type Scattered struct {
	G      *graph.Graph
	Group  []*cluster.Node
	Chunks []*Chunk
}

// Build scatters g's edges across the group in fixed-size chunks (several
// per node, so streaming pipelines).
func Build(g *graph.Graph, group []*cluster.Node, chunksPerNode int) (*Scattered, error) {
	if len(group) == 0 {
		return nil, fmt.Errorf("chaos: empty node group")
	}
	if chunksPerNode <= 0 {
		chunksPerNode = 4
	}
	total := len(group) * chunksPerNode
	per := (len(g.Edges) + total - 1) / total
	if per == 0 {
		per = 1
	}
	s := &Scattered{G: g, Group: group}
	for i := 0; i*per < len(g.Edges); i++ {
		lo, hi := i*per, (i+1)*per
		if hi > len(g.Edges) {
			hi = len(g.Edges)
		}
		node := group[i%len(group)]
		c := &Chunk{
			Node:     node,
			ID:       i,
			Edges:    g.Edges[lo:hi],
			DiskName: fmt.Sprintf("%s/chaos/c%d", g.Name, i),
		}
		node.Disk.Write(c.DiskName, graph.EncodeEdges(c.Edges))
		s.Chunks = append(s.Chunks, c)
	}
	return s, nil
}

// AsLayout exposes the chunks to GraphM as partitions. Chaos has no
// source-range index, so chunks cover the full vertex range.
func (s *Scattered) AsLayout() core.Layout {
	parts := make([]*core.Partition, 0, len(s.Chunks))
	for _, c := range s.Chunks {
		parts = append(parts, &core.Partition{
			ID:       c.ID,
			SrcLo:    0,
			SrcHi:    s.G.NumV,
			DiskName: c.DiskName,
			Edges:    c.Edges,
		})
	}
	return core.NewLayout(s.G, parts)
}

// SharedMemory builds the group's aggregate memory view with every chunk
// blob reachable, for the GraphM-integrated mode.
func (s *Scattered) SharedMemory(perNodeBudget int64) *storage.Memory {
	disk := storage.NewDisk()
	for _, c := range s.Chunks {
		disk.Write(c.DiskName, graph.EncodeEdges(c.Edges))
	}
	total := perNodeBudget * int64(len(s.Group))
	disk.SetPageCache(total)
	return storage.NewMemory(disk, total)
}

// NewRunner runs jobs over the scattered chunks as Chaos-S and Chaos-C,
// over the group's aggregate memory mem. In Chaos-C every job streams its
// own copy of every chunk over the shared NIC. All streams are registered
// with the network up front: the simulation prices contention by how many
// jobs share the link, not by how long the jobs happen to overlap (short
// jobs finish early and the Table 4 penalty would vanish).
func NewRunner(s *Scattered, net *cluster.Network, mem *storage.Memory, cache *memsim.Cache) *baseline.Runner {
	r := baseline.New(s.AsLayout(), mem, cache)
	r.Stream, r.StreamsUpFront = net.StartStream, true
	// Chaos streams every chunk over the network each traversal, resident
	// or not: remote storage is the common case.
	r.LoadCost = s.LoadHook(net)
	return r
}

// LoadHook prices the network streaming of a chunk load: each load crosses
// the network once and is amortized across the attending jobs (a GraphM
// round's attendees; one in Chaos-S and -C, where every job loads for
// itself). Chunks are scattered, so the group's NICs stream in parallel.
func (s *Scattered) LoadHook(net *cluster.Network) func(diskBytes, attendees int) uint64 {
	nodes := uint64(len(s.Group))
	return func(diskBytes, attendees int) uint64 {
		if attendees < 1 {
			attendees = 1
		}
		return net.TransferNS(uint64(diskBytes)) / nodes / uint64(attendees)
	}
}
