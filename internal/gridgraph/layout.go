package gridgraph

import (
	"graphm/internal/baseline"
	"graphm/internal/core"
	"graphm/internal/memsim"
	"graphm/internal/storage"
)

// AsLayout exposes the grid to GraphM (internal/core). GraphM manages the
// blocks exactly as GridGraph laid them out; only logical chunk labels are
// added on top (Section 3.2).
func (g *Grid) AsLayout() core.Layout {
	parts := make([]*core.Partition, 0, len(g.Parts))
	for _, p := range g.Parts {
		parts = append(parts, &core.Partition{
			ID:       p.ID,
			SrcLo:    p.SrcLo,
			SrcHi:    p.SrcHi,
			DiskName: p.DiskName,
			Edges:    p.Edges,
		})
	}
	return core.NewLayout(g.G, parts)
}

// NewRunner runs jobs over the grid as GridGraph-S and GridGraph-C. A block
// with no active source vertex is skipped, and each job contends for the
// disk only while it streams.
func NewRunner(grid *Grid, mem *storage.Memory, cache *memsim.Cache) *baseline.Runner {
	return baseline.New(grid.AsLayout(), mem, cache)
}
