package engine

import (
	"math/rand"
	"testing"

	"graphm/internal/graph"
	"graphm/internal/memsim"
)

// batchCountProg is countProg plus a BatchProgram implementation, for
// pinning the batch path's dispatch and counts.
type batchCountProg struct {
	countProg
	batchCalls int
}

func (p *batchCountProg) ProcessEdges(edges []graph.Edge, active *Bitmap) (processed, activated uint64) {
	p.batchCalls++
	for _, e := range edges {
		if active.Has(int(e.Src)) {
			p.processed++
			processed++
		}
	}
	return processed, 0
}

// TestApplyChunkMatchesPerEdgeReference replays identical jobs through the
// batched hot path and the per-edge reference model on separate caches: the
// contract is that every counter — per-job LLC hits/misses/
// instructions, cache-wide totals, and the priced metrics — is identical.
func TestApplyChunkMatchesPerEdgeReference(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("ref", 512, 6000, 7))
	if err != nil {
		t.Fatal(err)
	}
	for _, activeFrac := range []float64{0, 0.3, 1} {
		cacheA, _ := memsim.NewCache(memsim.DefaultConfig(16 << 10))
		cacheB, _ := memsim.NewCache(memsim.DefaultConfig(16 << 10))
		mk := func() *Job {
			p := &countProg{}
			j := NewJob(1, p, 1)
			j.Bind(g)
			j.StateBase = 1 << 30
			for v := 0; v < g.NumV; v++ {
				if float64(v)/float64(g.NumV) >= activeFrac {
					p.active.Clear(v)
				}
			}
			return j
		}
		ja, jb := mk(), mk()
		// Apply in chunks with odd boundaries so line-run splits land
		// mid-line at chunk edges too.
		cm := DefaultCostModel()
		for first := 0; first < len(g.Edges); first += 777 {
			hi := first + 777
			if hi > len(g.Edges) {
				hi = len(g.Edges)
			}
			ja.ApplyChunk(g.Edges[first:hi], 0, first, cacheA, cm)
			jb.ApplyChunkPerEdge(g.Edges[first:hi], 0, first, cacheB, cm)
		}
		if ja.Ctr.Hits != jb.Ctr.Hits || ja.Ctr.Misses != jb.Ctr.Misses ||
			ja.Ctr.Instructions != jb.Ctr.Instructions {
			t.Fatalf("activeFrac=%v: job counters diverge: batched %d/%d/%d vs per-edge %d/%d/%d",
				activeFrac, ja.Ctr.Hits, ja.Ctr.Misses, ja.Ctr.Instructions,
				jb.Ctr.Hits, jb.Ctr.Misses, jb.Ctr.Instructions)
		}
		if cacheA.TotalHits() != cacheB.TotalHits() || cacheA.TotalMisses() != cacheB.TotalMisses() {
			t.Fatalf("activeFrac=%v: cache totals diverge: %d/%d vs %d/%d",
				activeFrac, cacheA.TotalHits(), cacheA.TotalMisses(), cacheB.TotalHits(), cacheB.TotalMisses())
		}
		wa, wb := ja.Met.Work(), jb.Met.Work()
		if wa != wb {
			t.Fatalf("activeFrac=%v: work counters diverge: %+v vs %+v", activeFrac, wa, wb)
		}
		if ja.Met.SimMemNS != jb.Met.SimMemNS || ja.Met.SimComputeNS != jb.Met.SimComputeNS {
			t.Fatalf("activeFrac=%v: priced time diverges: mem %d vs %d, compute %d vs %d",
				activeFrac, ja.Met.SimMemNS, jb.Met.SimMemNS, ja.Met.SimComputeNS, jb.Met.SimComputeNS)
		}
	}
}

// TestBatchProgramDispatch verifies ApplyChunk routes through ProcessEdges
// when the program implements BatchProgram, with counts identical to the
// per-edge fallback.
func TestBatchProgramDispatch(t *testing.T) {
	g, _ := graph.GenerateUniform("b", 64, 400, 3)
	cache, _ := memsim.NewCache(memsim.DefaultConfig(32 << 10))
	bp := &batchCountProg{}
	j := NewJob(1, bp, 1)
	j.Bind(g)
	j.StateBase = 1 << 30
	st := j.ApplyChunk(g.Edges, 0, 0, cache, DefaultCostModel())
	if bp.batchCalls == 0 {
		t.Fatal("BatchProgram.ProcessEdges was never dispatched")
	}
	if st.Scanned != 400 || st.Processed != 400 {
		t.Fatalf("scanned/processed = %d/%d, want 400/400", st.Scanned, st.Processed)
	}
	if bp.processed != 400 {
		t.Fatalf("program processed %d edges, want 400", bp.processed)
	}
}

// TestInterleavedChunkAppliesConserveCounters is the conservation check of
// batched counter flushing: many jobs take turns applying chunks against one
// shared cache, and the per-job flushed counters must sum exactly to the
// cache-wide totals — no lost or double-counted batch — with every job's
// Instructions equal to its Hits+Misses.
func TestInterleavedChunkAppliesConserveCounters(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("conserve", 256, 8000, 11))
	if err != nil {
		t.Fatal(err)
	}
	cache, _ := memsim.NewCache(memsim.DefaultConfig(32 << 10))
	const jobs = 8
	js := make([]*Job, jobs)
	for i := range js {
		js[i] = NewJob(i, &countProg{}, int64(i))
		js[i].Bind(g)
		js[i].StateBase = uint64(i+1) << 32
	}
	rng := rand.New(rand.NewSource(1))
	for it := 0; it < 20; it++ {
		for _, j := range js {
			first := rng.Intn(len(g.Edges) - 100)
			n := min(100+rng.Intn(900), len(g.Edges)-first)
			j.ApplyChunk(g.Edges[first:first+n], 0, first, cache, DefaultCostModel())
		}
	}
	var hits, misses uint64
	for _, j := range js {
		hits += j.Ctr.Hits
		misses += j.Ctr.Misses
		if j.Ctr.Instructions != j.Ctr.Hits+j.Ctr.Misses {
			t.Fatalf("job %d: instructions %d != hits+misses %d", j.ID,
				j.Ctr.Instructions, j.Ctr.Hits+j.Ctr.Misses)
		}
	}
	if hits != cache.TotalHits() || misses != cache.TotalMisses() {
		t.Fatalf("per-job sums %d/%d disagree with cache totals %d/%d",
			hits, misses, cache.TotalHits(), cache.TotalMisses())
	}
}

// ApplyChunkPerEdge is the reference accounting model: the same canonical
// access sequence as ApplyChunk — stream phase, then the chunk's state
// accesses — priced one memsim.Cache.Touch at a time, in program order, and
// always through the per-edge ProcessEdge path. It is a per-edge OpenChunk,
// CollectChunk and PriceChunk on slot 0. The two models' counters match bit
// for bit (memsim's grouped-state property tests prove the state phase, the
// scenario harness the whole chunk).
func (j *Job) ApplyChunkPerEdge(edges []graph.Edge, baseAddr uint64, first int, cache *memsim.Cache, cm CostModel) StreamStats {
	j.OpenChunk(0, edges, baseAddr, first, true)
	j.CollectChunk(0, cache)
	return j.PriceChunk(0, cache, cm)
}
