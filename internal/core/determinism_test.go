package core_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"graphm/internal/core"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/gridgraph"
	"graphm/internal/memsim"
	"graphm/internal/storage"
)

// TestSerialDriverSimDeterministic pins the serial driver's promise that
// one owner prices each partition's LLC accesses in a fixed order: an
// 8-job rotation run through System.Run must report the same simulated
// numbers — cache-wide hits and misses, every job's LLC counters and
// Metrics (simulated memory, compute and I/O time included) — on every run
// and at any GOMAXPROCS, both in memory and out of core (every partition
// reloaded from disk each time it opens), and out of core in Share-only
// (FineSync off), whose pricer takes one attendee's window after another's.
func TestSerialDriverSimDeterministic(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("det", 1024, 9000, 23))
	if err != nil {
		t.Fatal(err)
	}
	type jobSim struct {
		Hits, Misses, Instructions uint64
		Met                        engine.Metrics
	}
	type outcome struct {
		Hits, Misses uint64
		Jobs         []jobSim
	}
	for _, tc := range []struct {
		name     string
		budget   int64
		fineSync bool
	}{
		{"in-memory", 64 << 20, true},
		{"out-of-core", 1, true},
		{"share-only", 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() outcome {
				disk := storage.NewDisk()
				grid, err := gridgraph.Build(g, 4, disk)
				if err != nil {
					t.Fatal(err)
				}
				mem := storage.NewMemory(disk, tc.budget)
				cfg := core.DefaultConfig(64 << 10)
				cfg.FineSync = tc.fineSync
				cache, err := memsim.NewCache(memsim.DefaultConfig(cfg.LLCBytes))
				if err != nil {
					t.Fatal(err)
				}
				sys, err := core.NewSystem(grid.AsLayout(), mem, cache, cfg)
				if err != nil {
					t.Fatal(err)
				}
				js := rotationJobs(8, 41)
				if err := sys.Run(js); err != nil {
					t.Fatal(err)
				}
				if sys.StatsSnapshot().SharedLoads == 0 {
					t.Fatal("no shared partition loads — the jobs never streamed a partition together")
				}
				if tc.budget == 1 && mem.Faults() == 0 {
					t.Fatal("out-of-core run took no faults")
				}
				o := outcome{Hits: cache.TotalHits(), Misses: cache.TotalMisses()}
				for _, j := range js {
					o.Jobs = append(o.Jobs, jobSim{j.Ctr.Hits, j.Ctr.Misses, j.Ctr.Instructions, j.Met})
				}
				return o
			}
			var want outcome
			for _, procs := range []int{1, 2} {
				for i := 0; i < 3; i++ {
					prev := runtime.GOMAXPROCS(procs)
					got := run()
					runtime.GOMAXPROCS(prev)
					where := fmt.Sprintf("GOMAXPROCS=%d run %d", procs, i+1)
					if want.Jobs == nil {
						want = got
						continue
					}
					if got.Hits != want.Hits || got.Misses != want.Misses {
						t.Fatalf("%s: cache totals %d hits/%d misses, first run %d/%d",
							where, got.Hits, got.Misses, want.Hits, want.Misses)
					}
					for k := range want.Jobs {
						if !reflect.DeepEqual(got.Jobs[k], want.Jobs[k]) {
							t.Fatalf("%s: job %d simulated numbers %+v, first run %+v",
								where, k, got.Jobs[k], want.Jobs[k])
						}
					}
				}
			}
		})
	}
}
