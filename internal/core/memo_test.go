package core_test

import (
	"math"
	"testing"

	"graphm/internal/algorithms"
	"graphm/internal/core"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/gridgraph"
	"graphm/internal/memsim"
	"graphm/internal/storage"
)

// TestMemoKeyedOnChunkAcrossReloads drives one full-active job out of core:
// a one-byte memory budget evicts every partition before its next load, so
// each iteration streams every chunk from a fresh buffer at a new simulated
// address. The per-chunk memo must hold one entry per distinct chunk (not
// one per iteration and chunk), serve every visit after the first, leave
// every counter and output bit-identical to the per-edge reference model,
// and be gone once the session closes.
func TestMemoKeyedOnChunkAcrossReloads(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("reload", 600, 6000, 23))
	if err != nil {
		t.Fatal(err)
	}
	const iters = 5
	type outcome struct {
		ranks        []float64
		met          engine.Metrics
		hits, misses uint64
	}
	run := func(perEdge bool) outcome {
		disk := storage.NewDisk()
		grid, err := gridgraph.Build(g, 3, disk)
		if err != nil {
			t.Fatal(err)
		}
		mem := storage.NewMemory(disk, 1)
		cfg := core.DefaultConfig(16 << 10)
		cfg.Cores = 1
		cfg.PerEdgeSim = perEdge
		cache, err := memsim.NewCache(memsim.DefaultConfig(cfg.LLCBytes))
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(grid.AsLayout(), mem, cache, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pr := algorithms.NewPageRank(0.85, iters)
		pr.Tolerance = -1
		j := engine.NewJob(1, pr, 1)
		sess, err := sys.OpenSession(j)
		if err != nil {
			t.Fatal(err)
		}
		for sess.BeginIteration() {
			for sp := sess.Sharing(); sp != nil; sp = sess.Sharing() {
				sp.ProcessAll()
				sp.Barrier()
			}
			sess.EndIteration()
		}
		chunks, parts := 0, 0
		for pid := 0; pid < sys.NumPartitions(); pid++ {
			if n := sys.ChunkCount(pid); n > 0 {
				chunks += n
				parts++
			}
		}
		if chunks <= parts {
			t.Fatalf("%d chunks over %d partitions — need multi-chunk partitions", chunks, parts)
		}
		if got, want := mem.Faults(), uint64(iters*parts); got != want {
			t.Fatalf("%d partition faults, want %d (every partition reloaded every iteration)", got, want)
		}
		entries, memoHits := j.MemoStats()
		wantEntries, wantHits := chunks, uint64((iters-1)*chunks)
		if perEdge {
			wantEntries, wantHits = 0, 0
		}
		if entries != wantEntries || memoHits != wantHits {
			t.Fatalf("perEdge=%v: memo holds %d entries with %d hits, want %d entries (distinct chunks) and %d hits",
				perEdge, entries, memoHits, wantEntries, wantHits)
		}
		sess.Close()
		if entries, _ := j.MemoStats(); entries != 0 {
			t.Fatalf("memo kept %d entries past Session.Close", entries)
		}
		if err := sys.Wait(); err != nil {
			t.Fatal(err)
		}
		return outcome{ranks: pr.Ranks(), met: j.Met, hits: j.Ctr.Hits, misses: j.Ctr.Misses}
	}
	batched, perEdge := run(false), run(true)
	if batched.met != perEdge.met {
		t.Fatalf("metrics diverge: batched %+v vs per-edge %+v", batched.met, perEdge.met)
	}
	if batched.hits != perEdge.hits || batched.misses != perEdge.misses {
		t.Fatalf("LLC counters diverge: batched %d/%d vs per-edge %d/%d",
			batched.hits, batched.misses, perEdge.hits, perEdge.misses)
	}
	for v := range batched.ranks {
		if math.Float64bits(batched.ranks[v]) != math.Float64bits(perEdge.ranks[v]) {
			t.Fatalf("rank[%d] = %v batched vs %v per-edge (not bit-identical)", v, batched.ranks[v], perEdge.ranks[v])
		}
	}
}
