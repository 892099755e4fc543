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

	"graphm/internal/baseline"
	"graphm/internal/core"
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

// NewRunner runs jobs over the shards as GraphChi-S and GraphChi-C. Every
// shard spans the whole source range, so a shard streams whenever anything
// is active; each job contends for the disk only while it streams.
func NewRunner(s *Shards, mem *storage.Memory, cache *memsim.Cache) *baseline.Runner {
	return baseline.New(s.AsLayout(), mem, cache)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
