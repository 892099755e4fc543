package graphchi

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"graphm/internal/algorithms"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/memsim"
	"graphm/internal/storage"
)

func buildShards(t *testing.T, numV, numE, p int) (*graph.Graph, *Shards, *storage.Disk) {
	t.Helper()
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("gc", numV, numE, 31))
	if err != nil {
		t.Fatal(err)
	}
	disk := storage.NewDisk()
	s, err := Build(g, p, disk)
	if err != nil {
		t.Fatal(err)
	}
	return g, s, disk
}

func TestBuildShardsSortedAndComplete(t *testing.T) {
	g, s, _ := buildShards(t, 300, 2400, 4)
	total := 0
	for _, sh := range s.All {
		prev := graph.VertexID(0)
		for _, e := range sh.Edges {
			if int(e.Dst) < sh.DstLo || int(e.Dst) >= sh.DstHi {
				t.Fatalf("edge %v outside shard interval [%d,%d)", e, sh.DstLo, sh.DstHi)
			}
			if e.Dst < prev {
				t.Fatalf("shard %d not dst-sorted", sh.ID)
			}
			prev = e.Dst
		}
		total += len(sh.Edges)
	}
	if total != g.NumEdges() {
		t.Fatalf("shards cover %d edges, want %d", total, g.NumEdges())
	}
}

func TestBuildRejectsBadP(t *testing.T) {
	g := graph.GenerateChain("c", 4)
	if _, err := Build(g, 0, storage.NewDisk()); err == nil {
		t.Fatal("expected error for P=0")
	}
}

func TestSequentialPageRankCorrect(t *testing.T) {
	g, s, disk := buildShards(t, 400, 3000, 4)
	mem := storage.NewMemory(disk, 64<<20)
	cache, _ := memsim.NewCache(memsim.DefaultConfig(64 << 10))
	r := NewRunner(s, mem, cache)
	pr := algorithms.NewPageRank(0.85, 6)
	pr.Tolerance = 1e-12
	if err := r.RunSequential([]*engine.Job{engine.NewJob(1, pr, 1)}); err != nil {
		t.Fatal(err)
	}
	want := algorithms.ReferencePageRank(g, 0.85, 6)
	for v := range want {
		if math.Abs(pr.Ranks()[v]-want[v]) > 1e-9 {
			t.Fatalf("rank[%d] = %g, want %g", v, pr.Ranks()[v], want[v])
		}
	}
}

// TestConcurrentBFSCorrect runs two BFS jobs concurrently, twice on a fresh
// memory pool and cache: both results are correct, and every simulated
// number of the two runs is identical.
func TestConcurrentBFSCorrect(t *testing.T) {
	var prints [2]string
	for run := range prints {
		g, s, disk := buildShards(t, 400, 3000, 4)
		mem := storage.NewMemory(disk, 64<<20)
		cache, _ := memsim.NewCache(memsim.DefaultConfig(64 << 10))
		r := NewRunner(s, mem, cache)
		r.Cores = 4
		b1, b2 := algorithms.NewBFS(0), algorithms.NewBFS(5)
		jobs := []*engine.Job{engine.NewJob(1, b1, 1), engine.NewJob(2, b2, 2)}
		if err := r.RunConcurrent(jobs); err != nil {
			t.Fatal(err)
		}
		for i, b := range []*algorithms.BFS{b1, b2} {
			want := algorithms.ReferenceBFS(g, b.Root)
			for v := range want {
				if b.Dist()[v] != want[v] {
					t.Fatalf("job %d dist[%d] = %d, want %d", i, v, b.Dist()[v], want[v])
				}
			}
		}
		prints[run] = fingerprint(jobs, cache, mem)
	}
	if prints[0] != prints[1] {
		t.Fatalf("two runs of the same jobs differ:\n%s\nvs\n%s", prints[0], prints[1])
	}
}

// fingerprint renders every simulated number a run leaves: each job's LLC
// counters and metrics, the cache-wide totals and the memory peak.
func fingerprint(jobs []*engine.Job, cache *memsim.Cache, mem *storage.Memory) string {
	var b strings.Builder
	for _, j := range jobs {
		fmt.Fprintf(&b, "job %d: %+v %+v\n", j.ID, j.Ctr, j.Met)
	}
	fmt.Fprintf(&b, "cache %d hits %d misses, peak %d bytes\n", cache.TotalHits(), cache.TotalMisses(), mem.Peak())
	return b.String()
}

func TestGraphChiScansMoreThanGridWouldForBFS(t *testing.T) {
	// GraphChi has no shard skipping: a BFS over a shard layout scans the
	// full edge set every iteration, unlike GridGraph's selective grid.
	g, s, disk := buildShards(t, 400, 3000, 4)
	mem := storage.NewMemory(disk, 64<<20)
	cache, _ := memsim.NewCache(memsim.DefaultConfig(64 << 10))
	r := NewRunner(s, mem, cache)
	bfs := algorithms.NewBFS(0)
	j := engine.NewJob(1, bfs, 1)
	if err := r.RunSequential([]*engine.Job{j}); err != nil {
		t.Fatal(err)
	}
	if j.Met.ScannedEdges != uint64(g.NumEdges())*j.Met.Iterations {
		t.Fatalf("scanned %d, want full scans %d", j.Met.ScannedEdges, uint64(g.NumEdges())*j.Met.Iterations)
	}
}

func TestAsLayoutCoversGraph(t *testing.T) {
	g, s, _ := buildShards(t, 200, 1500, 3)
	layout := s.AsLayout()
	if layout.Graph() != g {
		t.Fatal("layout graph mismatch")
	}
	total := 0
	for _, p := range layout.Partitions() {
		if p.SrcLo != 0 || p.SrcHi != g.NumV {
			t.Fatalf("shard partition %d must cover full source range", p.ID)
		}
		total += len(p.Edges)
	}
	if total != g.NumEdges() {
		t.Fatalf("layout covers %d edges, want %d", total, g.NumEdges())
	}
}
