package powergraph

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

func buildPG(t *testing.T, numV, numE, nodes int) (*graph.Graph, *Partitioned, *cluster.Cluster) {
	t.Helper()
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("pg", numV, numE, 41))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(nodes, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(g, cl.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	return g, p, cl
}

func TestBuildCoversEdgesAndCountsReplicas(t *testing.T) {
	g, p, _ := buildPG(t, 300, 2400, 4)
	total := 0
	for _, f := range p.Frags {
		total += len(f.Edges)
	}
	if total != g.NumEdges() {
		t.Fatalf("fragments cover %d edges, want %d", total, g.NumEdges())
	}
	if p.Masters == 0 || p.Replicas < p.Masters {
		t.Fatalf("replica accounting wrong: %d replicas, %d masters", p.Replicas, p.Masters)
	}
	rf := p.ReplicationFactor()
	if rf < 1 || rf > 4 {
		t.Fatalf("replication factor %v outside [1, nodes]", rf)
	}
	if p.SyncBytesPerIteration() != (p.Replicas-p.Masters)*16 {
		t.Fatal("sync bytes formula changed unexpectedly")
	}
}

func TestBuildRejectsEmptyGroup(t *testing.T) {
	g := graph.GenerateChain("c", 4)
	if _, err := Build(g, nil); err == nil {
		t.Fatal("expected error for empty group")
	}
}

func TestSingleNodeHasNoMirrors(t *testing.T) {
	_, p, _ := buildPG(t, 100, 500, 1)
	if p.Replicas != p.Masters {
		t.Fatalf("single node should have no mirrors: %d vs %d", p.Replicas, p.Masters)
	}
	if p.SyncBytesPerIteration() != 0 {
		t.Fatal("single node should not sync")
	}
}

func TestSequentialCorrectAndMetersNetwork(t *testing.T) {
	g, p, cl := buildPG(t, 400, 3000, 4)
	mem := p.SharedMemory(64 << 20)
	cache, _ := memsim.NewCache(memsim.DefaultConfig(64 << 10))
	r := NewRunner(p, cl.Net, mem, cache)
	pr := algorithms.NewPageRank(0.85, 5)
	pr.Tolerance = 1e-12
	j := engine.NewJob(1, pr, 1)
	if err := r.RunSequential([]*engine.Job{j}); err != nil {
		t.Fatal(err)
	}
	want := algorithms.ReferencePageRank(g, 0.85, 5)
	for v := range want {
		if math.Abs(pr.Ranks()[v]-want[v]) > 1e-9 {
			t.Fatalf("rank[%d] = %g, want %g", v, pr.Ranks()[v], want[v])
		}
	}
	if cl.Net.Bytes() == 0 {
		t.Fatal("no replica-sync traffic metered")
	}
	if j.Met.SimIONS == 0 {
		t.Fatal("network time not charged to the job")
	}
}

// TestConcurrentCorrect runs two WCC jobs concurrently, twice on a fresh
// cluster, memory pool and cache: both results are correct, and every
// simulated number of the two runs is identical.
func TestConcurrentCorrect(t *testing.T) {
	var prints [2]string
	for run := range prints {
		g, p, cl := buildPG(t, 300, 2000, 3)
		mem := p.SharedMemory(64 << 20)
		cache, _ := memsim.NewCache(memsim.DefaultConfig(64 << 10))
		r := NewRunner(p, cl.Net, mem, cache)
		w1, w2 := algorithms.NewWCC(1000), algorithms.NewWCC(1000)
		jobs := []*engine.Job{engine.NewJob(1, w1, 1), engine.NewJob(2, w2, 2)}
		if err := r.RunConcurrent(jobs); err != nil {
			t.Fatal(err)
		}
		want := algorithms.ReferenceWCC(g)
		for v := range want {
			if w1.Labels()[v] != want[v] || w2.Labels()[v] != want[v] {
				t.Fatalf("wcc label mismatch at %d", v)
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

func TestSyncProgramChargesPerIteration(t *testing.T) {
	g, p, cl := buildPG(t, 200, 1200, 4)
	pr := algorithms.NewPageRank(0.85, 3)
	pr.Tolerance = 1e-12
	j := engine.NewJob(1, pr, 1)
	sp := &SyncProgram{Program: pr, Job: j, Net: cl.Net, P: p}
	j.Prog = sp

	j.Bind(g)
	for iter := 0; j.Prog.BeforeIteration(iter); iter++ {
		for _, e := range g.Edges {
			if j.Prog.Active().Has(int(e.Src)) {
				j.Prog.ProcessEdge(e)
			}
		}
		j.Prog.AfterIteration(iter)
	}
	if j.Met.SimIONS == 0 {
		t.Fatal("SyncProgram charged no network time")
	}
	if cl.Net.Messages() != 3 {
		t.Fatalf("messages = %d, want one per iteration (3)", cl.Net.Messages())
	}
}
