package core_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"graphm/internal/algorithms"
	"graphm/internal/core"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/gridgraph"
	"graphm/internal/jobs"
	"graphm/internal/memsim"
	"graphm/internal/storage"
)

// testRig builds a grid + memory + cache + GraphM system over an R-MAT graph.
type testRig struct {
	g     *graph.Graph
	grid  *gridgraph.Grid
	disk  *storage.Disk
	mem   *storage.Memory
	cache *memsim.Cache
	sys   *core.System
}

func newRig(t *testing.T, numV, numE, p int, cfg core.Config) *testRig {
	t.Helper()
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("t", numV, numE, 17))
	if err != nil {
		t.Fatal(err)
	}
	return newRigWithGraph(t, g, p, cfg)
}

func newRigWithGraph(t *testing.T, g *graph.Graph, p int, cfg core.Config) *testRig {
	t.Helper()
	disk := storage.NewDisk()
	grid, err := gridgraph.Build(g, p, disk)
	if err != nil {
		t.Fatal(err)
	}
	mem := storage.NewMemory(disk, 64<<20)
	cache, err := memsim.NewCache(memsim.DefaultConfig(cfg.LLCBytes))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(grid.AsLayout(), mem, cache, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{g: g, grid: grid, disk: disk, mem: mem, cache: cache, sys: sys}
}

// newRigErr is newRigWithGraph without the fatal-on-error behaviour, for
// validation tests.
func newRigErr(t *testing.T, g *graph.Graph, cfg core.Config) (*core.System, error) {
	t.Helper()
	disk := storage.NewDisk()
	grid, err := gridgraph.Build(g, 4, disk)
	if err != nil {
		t.Fatal(err)
	}
	mem := storage.NewMemory(disk, 64<<20)
	cache, err := memsim.NewCache(memsim.DefaultConfig(64 << 10))
	if err != nil {
		t.Fatal(err)
	}
	return core.NewSystem(grid.AsLayout(), mem, cache, cfg)
}

// rotationJobs builds a deterministic 4-algorithm rotation.
func rotationJobs(n int, seed int64) []*engine.Job {
	return jobs.Rotation(n, seed).Jobs
}

func TestConfigValidation(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("v", 128, 800, 3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(64 << 10)
	cfg.Cores = -1
	if _, err := newRigErr(t, g, cfg); err == nil {
		t.Fatal("negative Cores accepted")
	}
	// Partitions stream on the jobs' own goroutines: Workers stays 0.
	for _, w := range []int{-2, 1} {
		cfg = core.DefaultConfig(64 << 10)
		cfg.Workers = w
		if _, err := newRigErr(t, g, cfg); err == nil {
			t.Fatalf("Workers=%d accepted", w)
		}
	}
	// Cores == 0 resolves to GOMAXPROCS(0) instead of erroring.
	cfg = core.DefaultConfig(64 << 10)
	cfg.Cores = 0
	sys, err := newRigErr(t, g, cfg)
	if err != nil {
		t.Fatalf("Cores=0 rejected: %v", err)
	}
	if got, want := sys.ResolvedCores(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Cores=0 resolved to %d, want GOMAXPROCS %d", got, want)
	}
}

func TestInitLabelsAllEdges(t *testing.T) {
	r := newRig(t, 512, 4000, 4, core.DefaultConfig(64<<10))
	total := 0
	for pid := 0; pid < r.sys.NumPartitions(); pid++ {
		for k := 0; k < r.sys.ChunkCount(pid); k++ {
			edges, err := r.sys.ChunkView(-1, pid, k)
			if err != nil {
				t.Fatal(err)
			}
			total += len(edges)
		}
	}
	if total != r.g.NumEdges() {
		t.Fatalf("chunks cover %d edges, want %d", total, r.g.NumEdges())
	}
	if r.sys.ChunkBytes() <= 0 {
		t.Fatal("chunk size not computed")
	}
}

func TestSingleJobPageRankCorrect(t *testing.T) {
	r := newRig(t, 512, 4000, 4, core.DefaultConfig(64<<10))
	pr := algorithms.NewPageRank(0.85, 8)
	pr.Tolerance = 1e-12
	j := engine.NewJob(1, pr, 100)
	if err := r.sys.Run([]*engine.Job{j}); err != nil {
		t.Fatal(err)
	}
	want := algorithms.ReferencePageRank(r.g, 0.85, 8)
	for v := range want {
		if math.Abs(pr.Ranks()[v]-want[v]) > 1e-9 {
			t.Fatalf("rank[%d] = %g, want %g", v, pr.Ranks()[v], want[v])
		}
	}
	if !j.Done || j.Met.Iterations != 8 {
		t.Fatalf("job not completed properly: done=%v iters=%d", j.Done, j.Met.Iterations)
	}
}

func TestConcurrentJobsAllCorrect(t *testing.T) {
	r := newRig(t, 600, 5000, 4, core.DefaultConfig(64<<10))

	pr := algorithms.NewPageRank(0.6, 6)
	pr.Tolerance = 1e-12
	wcc := algorithms.NewWCC(1000)
	bfs := algorithms.NewBFS(3)
	sssp := algorithms.NewSSSP(7)

	jobs := []*engine.Job{
		engine.NewJob(1, pr, 1),
		engine.NewJob(2, wcc, 2),
		engine.NewJob(3, bfs, 3),
		engine.NewJob(4, sssp, 4),
	}
	if err := r.sys.Run(jobs); err != nil {
		t.Fatal(err)
	}

	wantPR := algorithms.ReferencePageRank(r.g, 0.6, 6)
	for v := range wantPR {
		if math.Abs(pr.Ranks()[v]-wantPR[v]) > 1e-9 {
			t.Fatalf("pagerank[%d] = %g, want %g", v, pr.Ranks()[v], wantPR[v])
		}
	}
	wantWCC := algorithms.ReferenceWCC(r.g)
	for v := range wantWCC {
		if wcc.Labels()[v] != wantWCC[v] {
			t.Fatalf("wcc[%d] = %d, want %d", v, wcc.Labels()[v], wantWCC[v])
		}
	}
	wantBFS := algorithms.ReferenceBFS(r.g, 3)
	for v := range wantBFS {
		if bfs.Dist()[v] != wantBFS[v] {
			t.Fatalf("bfs[%d] = %d, want %d", v, bfs.Dist()[v], wantBFS[v])
		}
	}
	wantSSSP := algorithms.ReferenceSSSP(r.g, 7)
	for v := range wantSSSP {
		got, want := sssp.Dist()[v], wantSSSP[v]
		if math.IsInf(float64(want), 1) != math.IsInf(float64(got), 1) {
			t.Fatalf("sssp[%d] reachability: got %v want %v", v, got, want)
		}
		if !math.IsInf(float64(want), 1) && math.Abs(float64(got-want)) > 1e-3 {
			t.Fatalf("sssp[%d] = %v, want %v", v, got, want)
		}
	}

	st := r.sys.StatsSnapshot()
	if st.SharedLoads == 0 {
		t.Error("no partition load was shared by multiple jobs")
	}
	if st.Rounds == 0 {
		t.Error("no rounds recorded")
	}
}

func TestSchedulerOffStillCorrect(t *testing.T) {
	cfg := core.DefaultConfig(64 << 10)
	cfg.Scheduler = false
	r := newRig(t, 400, 3000, 4, cfg)
	bfs := algorithms.NewBFS(0)
	wcc := algorithms.NewWCC(1000)
	jobs := []*engine.Job{engine.NewJob(1, bfs, 1), engine.NewJob(2, wcc, 2)}
	if err := r.sys.Run(jobs); err != nil {
		t.Fatal(err)
	}
	want := algorithms.ReferenceBFS(r.g, 0)
	for v := range want {
		if bfs.Dist()[v] != want[v] {
			t.Fatalf("bfs[%d] = %d, want %d", v, bfs.Dist()[v], want[v])
		}
	}
}

func TestFineSyncOffStillCorrect(t *testing.T) {
	cfg := core.DefaultConfig(64 << 10)
	cfg.FineSync = false
	r := newRig(t, 400, 3000, 4, cfg)
	pr := algorithms.NewPageRank(0.85, 5)
	pr.Tolerance = 1e-12
	sssp := algorithms.NewSSSP(1)
	jobs := []*engine.Job{engine.NewJob(1, pr, 1), engine.NewJob(2, sssp, 2)}
	if err := r.sys.Run(jobs); err != nil {
		t.Fatal(err)
	}
	want := algorithms.ReferencePageRank(r.g, 0.85, 5)
	for v := range want {
		if math.Abs(pr.Ranks()[v]-want[v]) > 1e-9 {
			t.Fatalf("rank[%d] = %g, want %g", v, pr.Ranks()[v], want[v])
		}
	}
}

func TestStaggeredSubmission(t *testing.T) {
	// Jobs submitted while a round is in flight must join later rounds and
	// still compute correct results.
	r := newRig(t, 500, 4000, 4, core.DefaultConfig(64<<10))
	pr := algorithms.NewPageRank(0.7, 12)
	pr.Tolerance = 1e-12
	j1 := engine.NewJob(1, pr, 1)
	r.sys.Submit(j1)

	bfs := algorithms.NewBFS(2)
	j2 := engine.NewJob(2, bfs, 2)
	r.sys.Submit(j2)

	if err := r.sys.Wait(); err != nil {
		t.Fatal(err)
	}
	wantPR := algorithms.ReferencePageRank(r.g, 0.7, 12)
	for v := range wantPR {
		if math.Abs(pr.Ranks()[v]-wantPR[v]) > 1e-9 {
			t.Fatalf("rank[%d] diverged", v)
		}
	}
	wantBFS := algorithms.ReferenceBFS(r.g, 2)
	for v := range wantBFS {
		if bfs.Dist()[v] != wantBFS[v] {
			t.Fatalf("bfs[%d] = %d, want %d", v, bfs.Dist()[v], wantBFS[v])
		}
	}
}

func TestDuplicateJobIDFails(t *testing.T) {
	r := newRig(t, 100, 500, 2, core.DefaultConfig(64<<10))
	a := engine.NewJob(1, algorithms.NewBFS(0), 1)
	b := engine.NewJob(1, algorithms.NewBFS(1), 2)
	_ = r.sys.Run([]*engine.Job{a, b})
	if r.sys.Err() == nil {
		t.Fatal("expected duplicate-ID error")
	}
}

func TestSharedMemoryOneCopy(t *testing.T) {
	// Under GraphM, N concurrent PageRank jobs must fault each partition
	// from disk at most once per residence, not once per job.
	r := newRig(t, 400, 3000, 2, core.DefaultConfig(64<<10))
	var jobs []*engine.Job
	for i := 0; i < 4; i++ {
		pr := algorithms.NewPageRank(0.5, 3)
		pr.Tolerance = 1e-12
		jobs = append(jobs, engine.NewJob(i+1, pr, int64(i)))
	}
	if err := r.sys.Run(jobs); err != nil {
		t.Fatal(err)
	}
	// Memory is large: every partition faults exactly once overall.
	if got, want := r.mem.Faults(), uint64(r.grid.NumPartitions()); got > want {
		t.Fatalf("faults = %d, want <= %d (one shared copy per partition)", got, want)
	}
}

func TestProfilerProducesCosts(t *testing.T) {
	r := newRig(t, 400, 3000, 4, core.DefaultConfig(64<<10))
	pr := algorithms.NewPageRank(0.85, 6)
	pr.Tolerance = 1e-12
	wcc := algorithms.NewWCC(1000)
	j1, j2 := engine.NewJob(1, pr, 1), engine.NewJob(2, wcc, 2)

	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = r.sys.Run([]*engine.Job{j1, j2})
	}()
	<-done
	// After completion the jobs have left; the system must have profiled
	// T(E) at least once (pinned for later jobs).
	if te := r.sys.SharedTE(); te < 0 {
		t.Fatalf("profiled T(E) = %v, want >= 0", te)
	}
}

func TestActivePartitionsMatchesBitmap(t *testing.T) {
	r := newRig(t, 400, 3000, 4, core.DefaultConfig(64<<10))
	bm := engine.NewBitmap(r.g.NumV)
	bm.Set(0) // only stripe 0 active
	pids := r.sys.ActivePartitions(bm)
	for _, pid := range pids {
		p := r.grid.Partition(pid)
		if p.SrcLo > 0 {
			t.Fatalf("partition %d (srcLo=%d) should not be active", pid, p.SrcLo)
		}
	}
	if len(pids) == 0 {
		t.Fatal("no active partitions for vertex 0")
	}
}

// TestMutateChunkCallbackMayReenterSystem guards the locking contract: the
// MutateChunk callback runs with no System lock held, so it may call public
// System methods (here ChunkView on another chunk) without deadlocking.
func TestMutateChunkCallbackMayReenterSystem(t *testing.T) {
	r := newRig(t, 200, 1600, 2, core.DefaultConfig(64<<10))
	other, err := r.sys.ChunkView(-1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- r.sys.MutateChunk(5, 0, 0, func(edges []graph.Edge) []graph.Edge {
			// Re-enter the System mid-callback — this deadlocked when the
			// callback ran under the controller mutex.
			v, err := r.sys.ChunkView(-1, 1, 0)
			if err != nil || len(v) != len(other) {
				t.Errorf("re-entrant ChunkView failed: %v (len %d vs %d)", err, len(v), len(other))
			}
			return append(edges, graph.Edge{Src: 1, Dst: 2, Weight: 1})
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("MutateChunk with a re-entrant callback deadlocked")
	}
	mutated, err := r.sys.ChunkView(5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	base, err := r.sys.ChunkView(-1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mutated) != len(base)+1 {
		t.Fatalf("mutation lost: view has %d edges, want %d", len(mutated), len(base)+1)
	}
}
