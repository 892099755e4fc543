package engine_test

import (
	"testing"

	"graphm/internal/algorithms"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/memsim"
)

// BenchmarkApplyChunkReload measures the full-active hot path the way an
// out-of-core system drives it: every pass re-applies the same chunks under
// a fresh buffer address, because each iteration reloads every partition
// into a new buffer. One op is one pass over the graph; the Medges/s metric
// counts scanned edges per wall-clock second.
func BenchmarkApplyChunkReload(b *testing.B) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("reload", 1<<14, 1<<18, 5))
	if err != nil {
		b.Fatal(err)
	}
	cache, err := memsim.NewCache(memsim.DefaultConfig(1 << 20))
	if err != nil {
		b.Fatal(err)
	}
	prog := algorithms.NewPageRank(0.85, 1<<30)
	j := engine.NewJob(1, prog, 1)
	j.Bind(g)
	j.StateBase = 1 << 40
	cm := engine.DefaultCostModel()
	const chunk = 4096
	var base uint64
	pass := func() {
		base += 1 << 32
		for first := 0; first < len(g.Edges); first += chunk {
			hi := min(first+chunk, len(g.Edges))
			j.ApplyChunk(g.Edges[first:hi], base, first, cache, cm)
		}
	}
	prog.BeforeIteration(0)
	pass() // populate the memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(b.N)*float64(len(g.Edges))/b.Elapsed().Seconds()/1e6, "Medges/s")
}
