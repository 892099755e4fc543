package core_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"graphm/internal/algorithms"
	"graphm/internal/core"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/gridgraph"
	"graphm/internal/jobs"
	"graphm/internal/memsim"
	"graphm/internal/storage"
)

// arrivalRun is one System.Run of stamped jobs: its simulated numbers, its
// counters but the suspensions, and the simulated clock it ended on.
type arrivalRun struct {
	sim   simOutcome
	stats core.Stats
	clock uint64
}

// runArrivals runs js as one System.Run on a fresh system over g (a 4x4
// grid, a 64 KB LLC, in memory).
func runArrivals(t *testing.T, g *graph.Graph, js []*engine.Job) arrivalRun {
	t.Helper()
	disk := storage.NewDisk()
	grid, err := gridgraph.Build(g, 4, disk)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(64 << 10)
	cache, err := memsim.NewCache(memsim.DefaultConfig(cfg.LLCBytes))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(grid.AsLayout(), storage.NewMemory(disk, 64<<20), cache, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(js); err != nil {
		t.Fatal(err)
	}
	r := arrivalRun{stats: sys.StatsSnapshot(), clock: sys.SimClock()}
	// Suspensions count the times a job's goroutine reached Sharing before
	// its partition opened, which depends on the goroutine schedule and not
	// on the simulated work: the same batch varies by a few run to run.
	r.stats.Suspensions, r.stats.Resumes = 0, 0
	r.sim = simOutcome{Hits: cache.TotalHits(), Misses: cache.TotalMisses()}
	for _, j := range js {
		if !j.Done {
			t.Fatalf("job %d not done after Run", j.ID)
		}
		r.sim.Jobs = append(r.sim.Jobs, jobSim{j.Ctr.Hits, j.Ctr.Misses, j.Ctr.Instructions, j.Met})
	}
	return r
}

// pageRankJobs returns jobs with IDs from, from+1, ..., each a PageRank
// that runs exactly iters iterations.
func pageRankJobs(from, n, iters int) []*engine.Job {
	var js []*engine.Job
	for i := 0; i < n; i++ {
		pr := algorithms.NewPageRank(0.85, iters)
		pr.Tolerance = -1
		js = append(js, engine.NewJob(from+i, pr, int64(from+i)))
	}
	return js
}

// TestRunArrivalsDeterministic pins that arrivals are an event on the
// simulated clock: an 8-job Poisson batch, stamped across the length of an
// all-at-once run of it, reports the same counters (but the suspensions),
// the same clock and the same simulated numbers for every job on every run
// and at any GOMAXPROCS.
func TestRunArrivalsDeterministic(t *testing.T) {
	g := determinismGraph(t)
	batch := runArrivals(t, g, jobs.Poisson(8, 2, 0, 41).Jobs)
	unit := batch.clock / 2
	var want arrivalRun
	for _, procs := range []int{1, 2, 4} {
		for i := 0; i < 2; i++ {
			prev := runtime.GOMAXPROCS(procs)
			got := runArrivals(t, g, jobs.Poisson(8, 2, unit, 41).Jobs)
			runtime.GOMAXPROCS(prev)
			where := fmt.Sprintf("GOMAXPROCS=%d run %d", procs, i+1)
			if want.sim.Jobs == nil {
				want = got
				if reflect.DeepEqual(got.sim, batch.sim) {
					t.Fatal("the stamped batch priced every job as all at once: the stamps spread nothing")
				}
				continue
			}
			if got.stats != want.stats || got.clock != want.clock {
				t.Fatalf("%s: stats %+v clock %d, want %+v clock %d", where, got.stats, got.clock, want.stats, want.clock)
			}
			want.sim.requireEqual(t, where, got.sim)
		}
	}
}

// TestRunAdmitsLateArrivalAfterOthersLeave stamps a job beyond the whole
// run of the others: the clock jumps to its stamp once they have left, it
// shares no load with them, and its rounds follow theirs.
func TestRunAdmitsLateArrivalAfterOthersLeave(t *testing.T) {
	g := determinismGraph(t)
	early := runArrivals(t, g, pageRankJobs(1, 4, 3))
	js := pageRankJobs(1, 4, 3)
	late := pageRankJobs(5, 1, 2)[0]
	late.ArriveNS = 2 * early.clock
	got := runArrivals(t, g, append(js, late))
	if got.stats.SharedLoads != early.stats.SharedLoads {
		t.Fatalf("shared loads %d, want the early jobs' %d", got.stats.SharedLoads, early.stats.SharedLoads)
	}
	if want := early.stats.Rounds + int(late.Met.Iterations); got.stats.Rounds != want || late.Met.Iterations != 2 {
		t.Fatalf("rounds %d (late job %d iterations), want %d", got.stats.Rounds, late.Met.Iterations, want)
	}
	if got.clock <= late.ArriveNS {
		t.Fatalf("clock %d did not pass the late stamp %d", got.clock, late.ArriveNS)
	}
	for i, want := range early.sim.Jobs {
		if !reflect.DeepEqual(got.sim.Jobs[i], want) {
			t.Fatalf("early job %d: %+v, want %+v as without the late job", i+1, got.sim.Jobs[i], want)
		}
	}
}

// TestRunArrivalInsideRoundJoinsAtNextBarrier stamps a job 1 ns after the
// start, inside the first round: it is admitted at the round barrier, so it
// runs its iterations in rounds 2 to 5 beside the others' rounds 2 to 4 and
// is never spliced into round 1.
func TestRunArrivalInsideRoundJoinsAtNextBarrier(t *testing.T) {
	g := determinismGraph(t)
	js := pageRankJobs(1, 3, 4)
	js[2].ArriveNS = 1
	got := runArrivals(t, g, js)
	if got.stats.Rounds != 5 || got.stats.MidRoundJoins != 0 {
		t.Fatalf("rounds %d, mid-round joins %d; want 5 and 0", got.stats.Rounds, got.stats.MidRoundJoins)
	}
	// Every job loads each partition once per round it is in. Rounds 1 to
	// 4 hold two or three jobs and share every load; round 5 holds the
	// late job alone and shares none.
	loads := got.sim.Jobs[0].Met.PartitionLoads
	if got.sim.Jobs[2].Met.PartitionLoads != loads || got.stats.SharedLoads != loads {
		t.Fatalf("shared loads %d, late job's loads %d; want both %d, the first job's",
			got.stats.SharedLoads, got.sim.Jobs[2].Met.PartitionLoads, loads)
	}
}

// TestRunAgainAfterReturn calls Run a second time on the same system: its
// jobs finish, and its stamps count from the clock's reading at that call,
// so a job stamped 1 ns still joins at the second round of that batch.
func TestRunAgainAfterReturn(t *testing.T) {
	g := determinismGraph(t)
	r := newRigWithGraph(t, g, 4, core.DefaultConfig(64<<10))
	if err := r.sys.Run(pageRankJobs(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	first := r.sys.StatsSnapshot()
	mid := r.sys.SimClock()
	again := pageRankJobs(3, 2, 2)
	again[1].ArriveNS = 1
	if err := r.sys.Run(again); err != nil {
		t.Fatal(err)
	}
	for _, j := range again {
		if !j.Done || j.Met.Iterations != 2 {
			t.Fatalf("job %d: done %v after %d iterations", j.ID, j.Done, j.Met.Iterations)
		}
	}
	st := r.sys.StatsSnapshot()
	if first.Rounds != 3 || st.Rounds != first.Rounds+3 {
		t.Fatalf("rounds %d after the first batch and %d after the second, want 3 and 6", first.Rounds, st.Rounds)
	}
	if r.sys.SimClock() <= mid {
		t.Fatalf("clock %d did not advance past %d", r.sys.SimClock(), mid)
	}
}
