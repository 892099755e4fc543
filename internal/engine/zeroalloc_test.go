package engine_test

import (
	"testing"

	"graphm/internal/algorithms"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/memsim"
)

// TestApplyChunkZeroAlloc is the steady-state allocation gate the per-worker
// arenas exist for: after the first iterations have grown a job's arena
// buffers and populated its per-chunk memo, re-applying the same chunks must
// not allocate at all — for every fallback algorithm, full-active and
// frontier-driven alike — and again when every pass re-applies the chunks
// under a new buffer address, as out-of-core reloads do, and when a pass is
// collected whole into consecutive record slots before any of it is priced,
// as the serial driver's two-phase partition streaming does. Any new per-chunk
// allocation on the hot path (a fresh slice, an escaping closure, a map
// insert per apply) trips this gate long before it shows up as a benchmark
// regression.
func TestApplyChunkZeroAlloc(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("zeroalloc", 512, 6000, 11))
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]engine.Program{
		"pagerank":  algorithms.NewPageRank(0.85, 50),
		"ppr":       algorithms.NewPersonalizedPageRank(3, 0.85, 50),
		"wcc":       algorithms.NewWCC(50),
		"bfs":       algorithms.NewBFS(3),
		"sssp":      algorithms.NewSSSP(3),
		"kcore":     algorithms.NewKCore(3),
		"labelprop": algorithms.NewLabelPropagation(50),
	}
	const chunk = 777
	chunks := (len(g.Edges) + chunk - 1) / chunk
	for name, prog := range progs {
		t.Run(name, func(t *testing.T) {
			cache, err := memsim.NewCache(memsim.DefaultConfig(64 << 10))
			if err != nil {
				t.Fatal(err)
			}
			j := engine.NewJob(1, prog, 42)
			j.Bind(g)
			j.StateBase = 1 << 30
			cm := engine.DefaultCostModel()
			var base uint64
			apply := func() {
				for first := 0; first < len(g.Edges); first += chunk {
					hi := first + chunk
					if hi > len(g.Edges) {
						hi = len(g.Edges)
					}
					j.ApplyChunk(g.Edges[first:hi], base, first, cache, cm)
				}
			}
			// Warm-up: two full iterations grow the arena slices, populate
			// the per-chunk memo for full-active programs, and let
			// frontier-driven programs reach a representative mixed
			// frontier.
			for iter := 0; iter < 2 && prog.BeforeIteration(iter); iter++ {
				apply()
				prog.AfterIteration(iter)
			}
			// Steady state: the frontier is frozen (no Before/AfterIteration)
			// so every run re-applies identical chunks, exactly like the
			// iteration-over-iteration hot loop.
			if allocs := testing.AllocsPerRun(10, apply); allocs != 0 {
				t.Fatalf("steady-state ApplyChunk allocated %.1f times per pass over the graph", allocs)
			}
			// Reload: an out-of-core system evicts and reloads every
			// partition between iterations, so the same chunks come back
			// under a fresh buffer address each pass. The memo is keyed on
			// the chunk, not the address, so a reload must still allocate
			// nothing and every full-active apply must hit the memo.
			entries, hits := j.MemoStats()
			reload := func() {
				base += 1 << 20
				apply()
			}
			if allocs := testing.AllocsPerRun(10, reload); allocs != 0 {
				t.Fatalf("reloaded ApplyChunk allocated %.1f times per pass over the graph", allocs)
			}
			entries2, hits2 := j.MemoStats()
			if entries2 != entries {
				t.Fatalf("memo grew from %d to %d entries across reloads of the same chunks", entries, entries2)
			}
			// AllocsPerRun makes one warm-up call plus the measured runs.
			if name == "pagerank" && !prog.Active().Full() {
				t.Fatal("pagerank is not full-active — the memo half of the gate would be vacuous")
			}
			want := uint64(0)
			if prog.Active().Full() {
				want = 11 * uint64(chunks)
			}
			if got := hits2 - hits; got != want {
				t.Fatalf("reload passes took the memo path %d times, want %d", got, want)
			}
			// Two-phase: the first pass grows one record per chunk; after it
			// neither half allocates.
			twoPhase := func() {
				base += 1 << 20
				for k, first := 0, 0; first < len(g.Edges); k, first = k+1, first+chunk {
					j.OpenChunk(k, g.Edges[first:min(first+chunk, len(g.Edges))], base, first, false)
					j.CollectChunk(k, cache)
				}
				for k := 0; k < chunks; k++ {
					j.PriceStream(k, cache)
					j.PriceChunk(k, cache, cm)
				}
			}
			twoPhase()
			if allocs := testing.AllocsPerRun(10, twoPhase); allocs != 0 {
				t.Fatalf("steady-state OpenChunk+CollectChunk+PriceStream+PriceChunk allocated %.1f times per pass over the graph", allocs)
			}
		})
	}
}
