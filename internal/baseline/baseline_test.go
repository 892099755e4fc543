package baseline

import (
	"fmt"
	"testing"

	"graphm/internal/algorithms"
	"graphm/internal/core"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/memsim"
	"graphm/internal/storage"
)

// hookRig is a runner over a two-partition layout whose hooks record what
// the runner charged them: the streams open at each load, the loads and the
// iterations.
type hookRig struct {
	*Runner
	open, peakOpen, loads, iters int
	attendees                    map[int]bool
}

func newHookRig(t *testing.T) *hookRig {
	t.Helper()
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("h", 200, 1600, 5))
	if err != nil {
		t.Fatal(err)
	}
	disk := storage.NewDisk()
	var parts []*core.Partition
	for i, half := range [][]graph.Edge{g.Edges[:800], g.Edges[800:]} {
		name := fmt.Sprintf("h/p%d", i)
		disk.Write(name, graph.EncodeEdges(half))
		parts = append(parts, &core.Partition{ID: i, SrcLo: 0, SrcHi: g.NumV, DiskName: name, Edges: half})
	}
	cache, err := memsim.NewCache(memsim.DefaultConfig(64 << 10))
	if err != nil {
		t.Fatal(err)
	}
	h := &hookRig{Runner: New(core.NewLayout(g, parts), storage.NewMemory(disk, 64<<20), cache), attendees: map[int]bool{}}
	h.Stream = func() func() {
		h.open++
		return func() { h.open-- }
	}
	h.LoadCost = func(diskBytes, attendees int) uint64 {
		h.loads++
		h.attendees[attendees] = true
		h.peakOpen = max(h.peakOpen, h.open)
		return 7
	}
	h.IterCost = func() uint64 { h.iters++; return 11 }
	return h
}

func pageRankJobs(n int) []*engine.Job {
	var js []*engine.Job
	for i := range n {
		pr := algorithms.NewPageRank(0.85, 3)
		pr.Tolerance = -1
		js = append(js, engine.NewJob(i+1, pr, int64(i)))
	}
	return js
}

// TestHooksChargedPerLoadAndIteration checks that every load pays LoadCost
// with one attendee and every iteration pays IterCost, both into SimIONS,
// and that the modes open the streams the fields ask for.
func TestHooksChargedPerLoadAndIteration(t *testing.T) {
	for _, tc := range []struct {
		name     string
		upFront  bool
		cores    int
		seq      bool
		wantPeak int
	}{
		{"sequential", false, 0, true, 1},
		{"concurrent per job", false, 0, false, 3},
		{"concurrent per job on one core", false, 1, false, 1},
		{"concurrent up front on one core", true, 1, false, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHookRig(t)
			h.StreamsUpFront, h.Cores = tc.upFront, tc.cores
			js := pageRankJobs(3)
			run := h.RunConcurrent
			if tc.seq {
				run = h.RunSequential
			}
			if err := run(js); err != nil {
				t.Fatal(err)
			}
			var loads, iters uint64
			for _, j := range js {
				loads += j.Met.PartitionLoads
				iters += j.Met.Iterations
				if !j.Done || j.Met.SimIONS < 7*j.Met.PartitionLoads+11*j.Met.Iterations {
					t.Fatalf("job %d: done %v, SimIONS %d misses the hook charges", j.ID, j.Done, j.Met.SimIONS)
				}
			}
			if loads != 3*3*2 || uint64(h.loads) != loads || uint64(h.iters) != iters || iters != 3*3 {
				t.Fatalf("loads %d (hook %d), iterations %d (hook %d); want 18 and 9", loads, h.loads, iters, h.iters)
			}
			if len(h.attendees) != 1 || !h.attendees[1] {
				t.Fatalf("LoadCost attendees = %v, want only 1", h.attendees)
			}
			if h.peakOpen != tc.wantPeak || h.open != 0 {
				t.Fatalf("streams open at a load peaked at %d, want %d; %d left open", h.peakOpen, tc.wantPeak, h.open)
			}
		})
	}
}

// TestLoadErrorNamesJobAndPartition runs over a disk missing the blobs: the
// error carries the job, the partition and the storage cause, and no stream
// is left open.
func TestLoadErrorNamesJobAndPartition(t *testing.T) {
	h := newHookRig(t)
	h.Mem = storage.NewMemory(storage.NewDisk(), 64<<20)
	h.StreamsUpFront = true
	err := h.RunConcurrent(pageRankJobs(2))
	want := `baseline: job 1 partition 0: storage: no blob "h/p0"`
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
	if h.open != 0 {
		t.Fatalf("%d streams left open", h.open)
	}
}
