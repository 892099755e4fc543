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
	g := determinismGraph(t)
	for _, tc := range determinismCases {
		t.Run(tc.name, func(t *testing.T) {
			var want simOutcome
			for _, procs := range []int{1, 2} {
				for i := 0; i < 3; i++ {
					prev := runtime.GOMAXPROCS(procs)
					got := runRotation(t, g, tc.budget, tc.fineSync, false)
					runtime.GOMAXPROCS(prev)
					where := fmt.Sprintf("GOMAXPROCS=%d run %d", procs, i+1)
					if want.Jobs == nil {
						want = got
						continue
					}
					want.requireEqual(t, where, got)
				}
			}
		})
	}
}

// TestSerialDriverPerEdgeOracle runs TestSerialDriverSimDeterministic's
// batch with PerEdgeSim on and off: the per-edge reference model prices
// every access through Cache.Touch, in the same canonical order as the
// batched hot path, so both must report the same cache totals and the same
// counters and Metrics for every job, in every configuration.
func TestSerialDriverPerEdgeOracle(t *testing.T) {
	g := determinismGraph(t)
	for _, tc := range determinismCases {
		t.Run(tc.name, func(t *testing.T) {
			want := runRotation(t, g, tc.budget, tc.fineSync, true)
			got := runRotation(t, g, tc.budget, tc.fineSync, false)
			want.requireEqual(t, "batched against per-edge", got)
			t.Logf("%d hits / %d misses", got.Hits, got.Misses)
		})
	}
}

// determinismCases are the configurations the driver's simulated numbers
// are pinned in: in memory, out of core (every partition reloaded from disk
// each time it opens), and out of core in Share-only (FineSync off), whose
// pricer takes one attendee's window after another's.
var determinismCases = []struct {
	name     string
	budget   int64
	fineSync bool
}{
	{"in-memory", 64 << 20, true},
	{"out-of-core", 1, true},
	{"share-only", 1, false},
}

func determinismGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("det", 1024, 9000, 23))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// jobSim is one job's simulated numbers.
type jobSim struct {
	Hits, Misses, Instructions uint64
	Met                        engine.Metrics
}

// simOutcome is a run's simulated numbers: the cache totals and every job's.
type simOutcome struct {
	Hits, Misses uint64
	Jobs         []jobSim
}

func (want simOutcome) requireEqual(t *testing.T, where string, got simOutcome) {
	t.Helper()
	if got.Hits != want.Hits || got.Misses != want.Misses {
		t.Fatalf("%s: cache totals %d hits/%d misses, want %d/%d",
			where, got.Hits, got.Misses, want.Hits, want.Misses)
	}
	for k := range want.Jobs {
		if !reflect.DeepEqual(got.Jobs[k], want.Jobs[k]) {
			t.Fatalf("%s: job %d simulated numbers %+v, want %+v",
				where, k, got.Jobs[k], want.Jobs[k])
		}
	}
}

// runRotation runs an 8-job rotation over g as one System.Run batch on a
// 64 KB LLC and a 4x4 grid, under the given memory budget and FineSync and
// PerEdgeSim settings, and returns its simulated numbers.
func runRotation(t *testing.T, g *graph.Graph, budget int64, fineSync, perEdge bool) simOutcome {
	t.Helper()
	disk := storage.NewDisk()
	grid, err := gridgraph.Build(g, 4, disk)
	if err != nil {
		t.Fatal(err)
	}
	mem := storage.NewMemory(disk, budget)
	cfg := core.DefaultConfig(64 << 10)
	cfg.FineSync = fineSync
	cfg.PerEdgeSim = perEdge
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
	if budget == 1 && mem.Faults() == 0 {
		t.Fatal("out-of-core run took no faults")
	}
	o := simOutcome{Hits: cache.TotalHits(), Misses: cache.TotalMisses()}
	for _, j := range js {
		o.Jobs = append(o.Jobs, jobSim{j.Ctr.Hits, j.Ctr.Misses, j.Ctr.Instructions, j.Met})
	}
	return o
}
