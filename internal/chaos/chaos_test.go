package chaos

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"graphm/internal/algorithms"
	"graphm/internal/cluster"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/memsim"
	"graphm/internal/storage"
)

func buildChaos(t *testing.T, numV, numE, nodes int) (*graph.Graph, *Scattered, *cluster.Cluster) {
	t.Helper()
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("ch", numV, numE, 51))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(nodes, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(g, cl.Nodes, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g, s, cl
}

func TestBuildScattersAllEdges(t *testing.T) {
	g, s, _ := buildChaos(t, 300, 2400, 4)
	total := 0
	nodesUsed := map[int]bool{}
	for _, c := range s.Chunks {
		total += len(c.Edges)
		nodesUsed[c.Node.ID] = true
	}
	if total != g.NumEdges() {
		t.Fatalf("chunks cover %d edges, want %d", total, g.NumEdges())
	}
	if len(nodesUsed) != 4 {
		t.Fatalf("edges on %d nodes, want 4", len(nodesUsed))
	}
}

func TestBuildRejectsEmptyGroup(t *testing.T) {
	g := graph.GenerateChain("c", 4)
	if _, err := Build(g, nil, 2); err == nil {
		t.Fatal("expected error for empty group")
	}
}

func TestSequentialSSSPCorrect(t *testing.T) {
	g, s, cl := buildChaos(t, 300, 2400, 4)
	mem := s.SharedMemory(64 << 20)
	cache, _ := memsim.NewCache(memsim.DefaultConfig(64 << 10))
	r := NewRunner(s, cl.Net, mem, cache)
	sp := algorithms.NewSSSP(0)
	if err := r.RunSequential([]*engine.Job{engine.NewJob(1, sp, 1)}); err != nil {
		t.Fatal(err)
	}
	want := algorithms.ReferenceSSSP(g, 0)
	for v := range want {
		got := sp.Dist()[v]
		if math.IsInf(float64(want[v]), 1) != math.IsInf(float64(got), 1) {
			t.Fatalf("reachability mismatch at %d", v)
		}
		if !math.IsInf(float64(want[v]), 1) && math.Abs(float64(got-want[v])) > 1e-3 {
			t.Fatalf("dist[%d] = %v, want %v", v, got, want[v])
		}
	}
}

func TestNetworkCostPerTraversal(t *testing.T) {
	// Chaos streams every chunk over the network each iteration: traffic
	// scales with iterations x graph size.
	g, s, cl := buildChaos(t, 200, 1600, 2)
	mem := s.SharedMemory(64 << 20)
	cache, _ := memsim.NewCache(memsim.DefaultConfig(64 << 10))
	r := NewRunner(s, cl.Net, mem, cache)
	pr := algorithms.NewPageRank(0.85, 4)
	pr.Tolerance = 1e-12
	j := engine.NewJob(1, pr, 1)
	if err := r.RunSequential([]*engine.Job{j}); err != nil {
		t.Fatal(err)
	}
	want := uint64(g.NumEdges()) * graph.EdgeSize * j.Met.Iterations
	if cl.Net.Bytes() != want {
		t.Fatalf("network bytes = %d, want %d", cl.Net.Bytes(), want)
	}
}

func TestConcurrentWorseThanSequentialPerByte(t *testing.T) {
	// The Table 4 signature: Chaos-C pays more simulated time than Chaos-S
	// for the same total traffic, because concurrent streams contend. Two
	// concurrent runs on a fresh cluster, memory pool and cache also leave
	// identical simulated numbers.
	var last string
	run := func(concurrent bool) uint64 {
		_, s, cl := buildChaos(t, 200, 1600, 2)
		mem := s.SharedMemory(64 << 20)
		cache, _ := memsim.NewCache(memsim.DefaultConfig(64 << 10))
		r := NewRunner(s, cl.Net, mem, cache)
		var jobs []*engine.Job
		for i := 0; i < 4; i++ {
			pr := algorithms.NewPageRank(0.85, 3)
			pr.Tolerance = 1e-12
			jobs = append(jobs, engine.NewJob(i+1, pr, int64(i)))
		}
		var err error
		if concurrent {
			err = r.RunConcurrent(jobs)
		} else {
			err = r.RunSequential(jobs)
		}
		if err != nil {
			t.Fatal(err)
		}
		var io uint64
		for _, j := range jobs {
			io += j.Met.SimIONS
		}
		last = fingerprint(jobs, cache, mem)
		return io
	}
	seq := run(false)
	conc := run(true)
	if conc <= seq {
		t.Fatalf("concurrent I/O time %d not above sequential %d", conc, seq)
	}
	first := last
	if again := run(true); again != conc || last != first {
		t.Fatalf("two concurrent runs of the same jobs differ:\n%s\nvs\n%s", first, last)
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

func TestLoadHookAmortizes(t *testing.T) {
	_, s, cl := buildChaos(t, 100, 800, 2)
	hook := s.LoadHook(cl.Net)
	one := hook(1<<20, 1)
	four := hook(1<<20, 4)
	if four >= one {
		t.Fatalf("hook must amortize across attendees: %d vs %d", four, one)
	}
	if hook(1<<20, 0) == 0 {
		t.Fatal("zero attendees should clamp to 1, not divide by zero")
	}
}
