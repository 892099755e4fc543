// Package gridgraph implements a GridGraph-style out-of-core engine
// substrate (Zhu et al., ATC'15): edges are partitioned into a P×P grid of
// blocks by (source stripe, destination stripe) and streamed block by block
// with selective scheduling (a block is skipped when no source vertex in its
// stripe is active — GridGraph's should_access_shard test).
//
// The package provides the two baseline execution modes the paper compares
// against — sequential (GridGraph-S) and OS-managed concurrent
// (GridGraph-C) — while the GraphM-integrated mode (GridGraph-M) lives in
// internal/core and drives the same grid layout through the Table 1 API.
package gridgraph

import (
	"fmt"

	"graphm/internal/graph"
	"graphm/internal/storage"
)

// Partition is one grid block: the edges whose source falls in
// [SrcLo, SrcHi) and destination in [DstLo, DstHi).
type Partition struct {
	ID           int
	SrcLo, SrcHi int
	DstLo, DstHi int
	Edges        []graph.Edge
	DiskName     string
}

// Grid is the preprocessed grid representation of one graph.
type Grid struct {
	Name string
	G    *graph.Graph
	P    int // grid is P×P
	VPP  int // vertices per stripe

	Parts []*Partition
}

// Build partitions g into a P×P grid and writes each block's edge blob to
// disk, mirroring GridGraph's preprocessing (the Convert() step of the
// paper's graph preprocessor).
func Build(g *graph.Graph, p int, disk *storage.Disk) (*Grid, error) {
	if p <= 0 {
		return nil, fmt.Errorf("gridgraph: P must be positive, got %d", p)
	}
	vpp := (g.NumV + p - 1) / p
	grid := &Grid{Name: g.Name, G: g, P: p, VPP: vpp}
	buckets := make([][]graph.Edge, p*p)
	for _, e := range g.Edges {
		i := int(e.Src) / vpp
		j := int(e.Dst) / vpp
		idx := i*p + j
		buckets[idx] = append(buckets[idx], e)
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			id := i*p + j
			part := &Partition{
				ID:       id,
				SrcLo:    i * vpp,
				SrcHi:    min((i+1)*vpp, g.NumV),
				DstLo:    j * vpp,
				DstHi:    min((j+1)*vpp, g.NumV),
				Edges:    buckets[id],
				DiskName: fmt.Sprintf("%s/grid/p%d", g.Name, id),
			}
			disk.Write(part.DiskName, graph.EncodeEdges(part.Edges))
			grid.Parts = append(grid.Parts, part)
		}
	}
	return grid, nil
}

// NumPartitions returns P*P.
func (g *Grid) NumPartitions() int { return len(g.Parts) }

// Partition returns block i in streaming order.
func (g *Grid) Partition(i int) *Partition { return g.Parts[i] }

// Graph returns the underlying graph.
func (g *Grid) Graph() *graph.Graph { return g.G }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
