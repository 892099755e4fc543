package gridgraph

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"graphm/internal/algorithms"
	"graphm/internal/baseline"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/memsim"
	"graphm/internal/storage"
)

// rig is a GridGraph runner together with the grid it streams.
type rig struct {
	*baseline.Runner
	Grid *Grid
}

func buildRig(t *testing.T, numV, numE, p int, memBudget int64) (*graph.Graph, *rig, *storage.Disk, *storage.Memory) {
	t.Helper()
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("g", numV, numE, 21))
	if err != nil {
		t.Fatal(err)
	}
	disk := storage.NewDisk()
	grid, err := Build(g, p, disk)
	if err != nil {
		t.Fatal(err)
	}
	mem := storage.NewMemory(disk, memBudget)
	cache, err := memsim.NewCache(memsim.DefaultConfig(64 << 10))
	if err != nil {
		t.Fatal(err)
	}
	return g, &rig{NewRunner(grid, mem, cache), grid}, disk, mem
}

func TestBuildPartitionsCoverEdges(t *testing.T) {
	g, r, _, _ := buildRig(t, 400, 3000, 4, 64<<20)
	total := 0
	for _, p := range r.Grid.Parts {
		for _, e := range p.Edges {
			if int(e.Src) < p.SrcLo || int(e.Src) >= p.SrcHi {
				t.Fatalf("edge %v outside src range [%d,%d)", e, p.SrcLo, p.SrcHi)
			}
			if int(e.Dst) < p.DstLo || int(e.Dst) >= p.DstHi {
				t.Fatalf("edge %v outside dst range [%d,%d)", e, p.DstLo, p.DstHi)
			}
		}
		total += len(p.Edges)
	}
	if total != g.NumEdges() {
		t.Fatalf("grid covers %d edges, want %d", total, g.NumEdges())
	}
	if got := r.Grid.NumPartitions(); got != 16 {
		t.Fatalf("partitions = %d, want 16", got)
	}
}

func TestBuildRejectsBadP(t *testing.T) {
	g := graph.GenerateChain("c", 4)
	if _, err := Build(g, 0, storage.NewDisk()); err == nil {
		t.Fatal("expected error for P=0")
	}
}

func TestBuildWritesBlobs(t *testing.T) {
	g, r, disk, _ := buildRig(t, 100, 800, 2, 64<<20)
	var blobBytes int64
	for _, p := range r.Grid.Parts {
		blobBytes += disk.Size(p.DiskName)
	}
	if blobBytes != int64(g.NumEdges())*graph.EdgeSize {
		t.Fatalf("blobs hold %d bytes, want %d", blobBytes, int64(g.NumEdges())*graph.EdgeSize)
	}
}

func TestSequentialCorrectness(t *testing.T) {
	g, r, _, _ := buildRig(t, 500, 4000, 4, 64<<20)
	pr := algorithms.NewPageRank(0.85, 6)
	pr.Tolerance = 1e-12
	bfs := algorithms.NewBFS(0)
	jobs := []*engine.Job{engine.NewJob(1, pr, 1), engine.NewJob(2, bfs, 2)}
	if err := r.RunSequential(jobs); err != nil {
		t.Fatal(err)
	}
	wantPR := algorithms.ReferencePageRank(g, 0.85, 6)
	for v := range wantPR {
		if math.Abs(pr.Ranks()[v]-wantPR[v]) > 1e-9 {
			t.Fatalf("rank[%d] = %g, want %g", v, pr.Ranks()[v], wantPR[v])
		}
	}
	wantBFS := algorithms.ReferenceBFS(g, 0)
	for v := range wantBFS {
		if bfs.Dist()[v] != wantBFS[v] {
			t.Fatalf("bfs[%d] = %d, want %d", v, bfs.Dist()[v], wantBFS[v])
		}
	}
}

// TestConcurrentCorrectness runs four jobs two at a time, twice on a fresh
// memory pool and cache: every job's result is correct, and the interleave
// makes every simulated number of the two runs identical.
func TestConcurrentCorrectness(t *testing.T) {
	var prints [2]string
	for run := range prints {
		g, r, _, mem := buildRig(t, 500, 4000, 4, 64<<20)
		r.Cores = 2
		var jobs []*engine.Job
		var prs []*algorithms.PageRank
		for i := 0; i < 4; i++ {
			pr := algorithms.NewPageRank(0.5+float64(i)*0.1, 5)
			pr.Tolerance = 1e-12
			prs = append(prs, pr)
			jobs = append(jobs, engine.NewJob(i+1, pr, int64(i)))
		}
		if err := r.RunConcurrent(jobs); err != nil {
			t.Fatal(err)
		}
		for i, pr := range prs {
			want := algorithms.ReferencePageRank(g, 0.5+float64(i)*0.1, 5)
			for v := range want {
				if math.Abs(pr.Ranks()[v]-want[v]) > 1e-9 {
					t.Fatalf("job %d rank[%d] = %g, want %g", i, v, pr.Ranks()[v], want[v])
				}
			}
		}
		prints[run] = fingerprint(jobs, r.Cache, mem)
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

func TestConcurrentUsesPerJobCopies(t *testing.T) {
	// GridGraph-C loads one copy per job: disk reads scale with job count
	// even when everything fits in memory.
	_, r, disk, _ := buildRig(t, 300, 2000, 2, 64<<20)
	var jobs []*engine.Job
	for i := 0; i < 4; i++ {
		pr := algorithms.NewPageRank(0.85, 2)
		pr.Tolerance = 1e-12
		jobs = append(jobs, engine.NewJob(i+1, pr, int64(i)))
	}
	if err := r.RunConcurrent(jobs); err != nil {
		t.Fatal(err)
	}
	if disk.ReadOps() < uint64(4*r.Grid.NumPartitions()) {
		t.Fatalf("reads = %d, want >= %d (a copy per job)", disk.ReadOps(), 4*r.Grid.NumPartitions())
	}
}

func TestSequentialSelectiveScheduling(t *testing.T) {
	// BFS from one vertex must not scan partitions with no active sources:
	// scanned edges in iteration 1 are bounded by the active stripes.
	g, r, _, _ := buildRig(t, 600, 3000, 4, 64<<20)
	bfs := algorithms.NewBFS(0)
	j := engine.NewJob(1, bfs, 1)
	if err := r.RunSequential([]*engine.Job{j}); err != nil {
		t.Fatal(err)
	}
	// A full traversal per iteration would scan numEdges*iterations.
	full := uint64(g.NumEdges()) * j.Met.Iterations
	if j.Met.ScannedEdges >= full {
		t.Fatalf("scanned %d edges, selective scheduling should scan < %d", j.Met.ScannedEdges, full)
	}
}

func TestOutOfCoreRefaults(t *testing.T) {
	// With memory far smaller than the graph, every full iteration must
	// re-read partitions from disk.
	g, r, disk, mem := buildRig(t, 400, 12000, 4, int64(12000*graph.EdgeSize/4))
	pr := algorithms.NewPageRank(0.85, 3)
	pr.Tolerance = 1e-12
	j := engine.NewJob(1, pr, 1)
	if err := r.RunSequential([]*engine.Job{j}); err != nil {
		t.Fatal(err)
	}
	if mem.Evictions() == 0 {
		t.Fatal("expected evictions in out-of-core run")
	}
	if disk.ReadBytes() < uint64(g.SizeBytes())*2 {
		t.Fatalf("disk reads %d bytes; out-of-core should re-read across iterations (graph=%d)",
			disk.ReadBytes(), g.SizeBytes())
	}
}
