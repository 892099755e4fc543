package engine_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"graphm/internal/algorithms"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/memsim"
)

// TestCollectPriceMatchesApplyChunk holds the two halves of ApplyChunk to
// the whole: for every batched algorithm, a job that collects a full pass
// over the graph into consecutive record slots and only then prices the
// slots in order — the serial driver's two-phase partition streaming, with
// every other chunk's stream phase priced by a separate PriceStream — must
// end every iteration with exactly the per-chunk StreamStats, job counters,
// Metrics, cache-wide totals, LRU state and program state of a twin that
// applies each chunk in turn. The passes mix memo misses, memo hits (the
// full-active programs from their second iteration) and chunks whose
// grouping is refused and priced in order: the cache has 8 ways over 32
// sets, the state of vertices 256 apart lands in one set, and the first
// chunks carry every edge among sixteen such hubs, while the random edges
// after them mostly fit the ways.
func TestCollectPriceMatchesApplyChunk(t *testing.T) {
	const numV, hubStride, hubs = 4096, 256, 16
	var edges []graph.Edge
	for a := 0; a < hubs; a++ {
		for b := 0; b < hubs; b++ {
			if a != b {
				edges = append(edges, graph.Edge{Src: graph.VertexID(a * hubStride), Dst: graph.VertexID(b * hubStride), Weight: 1})
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1400; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(rng.Intn(numV)), Dst: graph.VertexID(rng.Intn(numV)), Weight: 1})
	}
	g := graph.MustNew("collectprice", numV, edges)
	cfg := memsim.Config{SizeBytes: 16 << 10, Ways: 8}
	const stateBase, chunk = 1 << 30, 100

	progs := map[string]func() engine.Program{
		"pagerank": func() engine.Program {
			pr := algorithms.NewPageRank(0.85, 5)
			pr.Tolerance = -1 // stay full-active, so later passes hit the memo
			return pr
		},
		"ppr":       func() engine.Program { return algorithms.NewPersonalizedPageRank(0, 0.85, 5) },
		"wcc":       func() engine.Program { return algorithms.NewWCC(8) },
		"bfs":       func() engine.Program { return algorithms.NewBFS(0) },
		"sssp":      func() engine.Program { return algorithms.NewSSSP(0) },
		"kcore":     func() engine.Program { return algorithms.NewKCore(3) },
		"labelprop": func() engine.Program { return algorithms.NewLabelPropagation(5) },
	}
	for name, mk := range progs {
		t.Run(name, func(t *testing.T) {
			cacheA, err := memsim.NewCache(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cacheB, _ := memsim.NewCache(cfg)
			pa, pb := mk(), mk()
			if _, ok := pa.(engine.BatchProgram); !ok {
				t.Fatalf("%T is not a BatchProgram", pa)
			}
			ja, jb := engine.NewJob(1, pa, 1), engine.NewJob(1, pb, 1)
			for _, j := range []*engine.Job{ja, jb} {
				j.Bind(g)
				j.StateBase = stateBase
			}
			cm := engine.DefaultCostModel()
			var stA []engine.StreamStats
			overflows, fits := 0, 0
			iters := 0
			for iter := 0; pa.BeforeIteration(iter); iter++ {
				if !pb.BeforeIteration(iter) {
					t.Fatalf("iteration %d: twin programs disagree on termination", iter)
				}
				iters++
				// Each pass re-applies the chunks under a fresh buffer
				// address, as an out-of-core reload does.
				base := uint64(iter) << 20
				stA = stA[:0]
				for first := 0; first < len(g.Edges); first += chunk {
					hi := min(first+chunk, len(g.Edges))
					if overflowsSet(g.Edges[first:hi], pa.Active(), stateBase, 32, 8) {
						overflows++
					} else {
						fits++
					}
					stA = append(stA, ja.ApplyChunk(g.Edges[first:hi], base, first, cacheA, cm))
				}
				for k, first := 0, 0; first < len(g.Edges); k, first = k+1, first+chunk {
					jb.OpenChunk(k, g.Edges[first:min(first+chunk, len(g.Edges))], base, first, false)
					jb.CollectChunk(k, cacheB)
				}
				for k := range stA {
					if k%2 == 1 {
						// An early stream phase leaves the chunk's pricing
						// unchanged when nothing else touches the cache
						// between the two halves.
						jb.PriceStream(k, cacheB)
					}
					if st := jb.PriceChunk(k, cacheB, cm); st != stA[k] {
						t.Fatalf("iteration %d chunk %d: Collect+Price stats %+v, ApplyChunk %+v", iter, k, st, stA[k])
					}
				}
				pa.AfterIteration(iter)
				pb.AfterIteration(iter)
				if ja.Ctr.Hits != jb.Ctr.Hits || ja.Ctr.Misses != jb.Ctr.Misses ||
					ja.Ctr.Instructions != jb.Ctr.Instructions {
					t.Fatalf("iteration %d: job counters diverge: ApplyChunk %d/%d/%d vs Collect+Price %d/%d/%d", iter,
						ja.Ctr.Hits, ja.Ctr.Misses, ja.Ctr.Instructions,
						jb.Ctr.Hits, jb.Ctr.Misses, jb.Ctr.Instructions)
				}
				if ja.Met != jb.Met {
					t.Fatalf("iteration %d: metrics diverge: %+v vs %+v", iter, ja.Met, jb.Met)
				}
				if cacheA.TotalHits() != cacheB.TotalHits() || cacheA.TotalMisses() != cacheB.TotalMisses() {
					t.Fatalf("iteration %d: cache totals diverge: %d/%d vs %d/%d", iter,
						cacheA.TotalHits(), cacheA.TotalMisses(), cacheB.TotalHits(), cacheB.TotalMisses())
				}
				if !reflect.DeepEqual(pa, pb) {
					t.Fatalf("iteration %d: program state diverges", iter)
				}
			}
			if iters < 2 {
				t.Fatalf("%d iterations — the memo-hit passes went untested", iters)
			}
			if overflows == 0 || fits == 0 {
				t.Fatalf("%d chunks overflowed a set and %d fit: the in-order fallback or the grouped path went untested", overflows, fits)
			}
			_, hitsA := ja.MemoStats()
			if _, hitsB := jb.MemoStats(); hitsA != hitsB {
				t.Fatalf("memo served %d ApplyChunk calls but %d collections", hitsA, hitsB)
			}
			if pa.Name() == "pagerank" && hitsA == 0 {
				t.Fatal("pagerank never hit the memo: the memo-hit path went untested")
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
		})
	}
}

// TestPricedRecordDropsChunk guards the record lifetime: once a chunk is
// priced, its record must not keep the chunk's edges reachable. A record
// that did would pin, per finished job a caller keeps around, the buffer of
// the last partition it streamed. The job runs a frontier program, whose
// chunks are never memoized (a memo key pins its chunk by design).
func TestPricedRecordDropsChunk(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("lifetime", 256, 2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	cache, err := memsim.NewCache(memsim.DefaultConfig(64 << 10))
	if err != nil {
		t.Fatal(err)
	}
	prog := algorithms.NewBFS(0)
	j := engine.NewJob(1, prog, 1)
	j.Bind(g)
	j.StateBase = 1 << 30
	if !prog.BeforeIteration(0) || prog.Active().Full() {
		t.Fatal("BFS should start from a partial frontier")
	}
	freed := make(chan struct{})
	func() {
		edges := slices.Clone(g.Edges)
		runtime.SetFinalizer(&edges[0], func(*graph.Edge) { close(freed) })
		j.OpenChunk(0, edges, 0, 0, false)
		j.CollectChunk(0, cache)
		j.PriceChunk(0, cache, engine.DefaultCostModel())
	}()
	released := false
	for i := 0; i < 50 && !released; i++ {
		runtime.GC()
		select {
		case <-freed:
			released = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(j) // the job, and so its arena, stays live throughout
	if !released {
		t.Fatal("a priced chunk record still keeps the chunk's edges reachable")
	}
}
