package engine_test

import (
	"math/rand"
	"testing"

	"graphm/internal/algorithms"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/memsim"
)

// TestApplyChunkSetOverflowMatchesPerEdge drives ApplyChunk into its
// in-order state fallback — a chunk whose state lines outnumber one cache
// set's ways, so GroupEntries refuses — and holds it to the per-edge
// reference model: the same job counters, the same cache-wide totals, the
// same LRU state (a 512-access behavioural probe) and bit-identical outputs.
// It covers a full-active job, which goes through the memo path, and a
// frontier-gated one. The cache has 4 ways over 16 sets; the state of
// vertices 128 apart (8 bytes each) lands 16 lines apart, hence in one set,
// and the first chunk carries every edge among eight such hubs.
func TestApplyChunkSetOverflowMatchesPerEdge(t *testing.T) {
	const numV, hubStride, hubs = 1024, 128, 8
	var edges []graph.Edge
	for a := 0; a < hubs; a++ {
		for b := 0; b < hubs; b++ {
			if a != b {
				edges = append(edges, graph.Edge{Src: graph.VertexID(a * hubStride), Dst: graph.VertexID(b * hubStride), Weight: 1})
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 600; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(rng.Intn(numV)), Dst: graph.VertexID(rng.Intn(numV)), Weight: 1})
	}
	g := graph.MustNew("overflow", numV, edges)
	cfg := memsim.Config{SizeBytes: 4 << 10, Ways: 4}
	const stateBase, chunk = 1 << 30, 100

	for _, tc := range []struct {
		name string
		mk   func() engine.Program
	}{
		{"full-active", func() engine.Program { return algorithms.NewPageRank(0.85, 4) }},
		{"frontier", func() engine.Program { return algorithms.NewBFS(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cacheA, err := memsim.NewCache(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cacheB, _ := memsim.NewCache(cfg)
			pa, pb := tc.mk(), tc.mk()
			ja, jb := engine.NewJob(1, pa, 1), engine.NewJob(1, pb, 1)
			for _, j := range []*engine.Job{ja, jb} {
				j.Bind(g)
				j.StateBase = stateBase
			}
			cm := engine.DefaultCostModel()
			overflows := 0
			for iter := 0; pa.BeforeIteration(iter); iter++ {
				if !pb.BeforeIteration(iter) {
					t.Fatalf("iteration %d: twin programs disagree on termination", iter)
				}
				for first := 0; first < len(g.Edges); first += chunk {
					hi := min(first+chunk, len(g.Edges))
					if overflowsSet(g.Edges[first:hi], pa.Active(), stateBase, 16, 4) {
						overflows++
					}
					ja.ApplyChunk(g.Edges[first:hi], 0, first, cacheA, cm)
					jb.ApplyChunkPerEdge(g.Edges[first:hi], 0, first, cacheB, cm)
				}
				pa.AfterIteration(iter)
				pb.AfterIteration(iter)
			}
			if overflows == 0 {
				t.Fatal("no chunk overflowed a set: the in-order fallback went untested")
			}
			if ja.Ctr.Hits != jb.Ctr.Hits || ja.Ctr.Misses != jb.Ctr.Misses ||
				ja.Ctr.Instructions != jb.Ctr.Instructions {
				t.Fatalf("job counters diverge: batched %d/%d/%d vs per-edge %d/%d/%d",
					ja.Ctr.Hits, ja.Ctr.Misses, ja.Ctr.Instructions,
					jb.Ctr.Hits, jb.Ctr.Misses, jb.Ctr.Instructions)
			}
			if cacheA.TotalHits() != cacheB.TotalHits() || cacheA.TotalMisses() != cacheB.TotalMisses() {
				t.Fatalf("cache totals diverge: %d/%d vs %d/%d",
					cacheA.TotalHits(), cacheA.TotalMisses(), cacheB.TotalHits(), cacheB.TotalMisses())
			}
			probe := rand.New(rand.NewSource(9))
			for i := 0; i < 512; i++ {
				addr := uint64(probe.Intn(1 << 14))
				if probe.Intn(2) == 0 {
					addr += stateBase
				}
				if cacheA.Touch(addr, nil) != cacheB.Touch(addr, nil) {
					t.Fatalf("LRU state diverges at probe %d (addr %#x)", i, addr)
				}
			}
			switch a := pa.(type) {
			case *algorithms.PageRank:
				assertBitIdentical(t, a.Ranks(), pb.(*algorithms.PageRank).Ranks())
			case *algorithms.BFS:
				assertBitIdentical(t, a.Dist(), pb.(*algorithms.BFS).Dist())
			}
		})
	}
}

// overflowsSet reports whether the chunk's active-source edges touch more
// distinct state lines in one cache set than the cache has ways, with
// 8-byte vertex state from stateBase.
func overflowsSet(edges []graph.Edge, active *engine.Bitmap, stateBase uint64, sets, ways int) bool {
	perSet := map[uint64]map[uint64]bool{}
	for _, e := range edges {
		if !active.Has(int(e.Src)) {
			continue
		}
		for _, v := range []graph.VertexID{e.Src, e.Dst} {
			line := (stateBase + uint64(v)*8) / memsim.LineSize
			set := line % uint64(sets)
			if perSet[set] == nil {
				perSet[set] = map[uint64]bool{}
			}
			perSet[set][line] = true
			if len(perSet[set]) > ways {
				return true
			}
		}
	}
	return false
}

func assertBitIdentical[T comparable](t *testing.T, a, b []T) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("output lengths differ: %d vs %d", len(a), len(b))
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("output[%d]: %v vs %v (not bit-identical)", v, a[v], b[v])
		}
	}
}
