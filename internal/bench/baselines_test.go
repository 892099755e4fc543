package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphm/internal/chaos"
	"graphm/internal/cluster"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/graphchi"
	"graphm/internal/gridgraph"
	"graphm/internal/jobs"
	"graphm/internal/memsim"
	"graphm/internal/powergraph"
	"graphm/internal/storage"
)

// baselineRig is one baseline engine ready to run a workload in one mode,
// with every model whose counters the fingerprint reads.
type baselineRig struct {
	run   func(js []*engine.Job) error
	mem   *storage.Memory
	cache *memsim.Cache
	net   *cluster.Network // nil for the single-machine engines
}

// newBaselineRig builds engine eng over dataset in mode scheme (S or C) the
// way the figures do: GridGraph and GraphChi on one machine with the
// preset's budget and Cores = 4 in C, PowerGraph and Chaos over an 8-node
// group's distributed shared memory.
func newBaselineRig(t *testing.T, eng, dataset, scheme string) *baselineRig {
	t.Helper()
	g, spec, err := graph.Dataset(dataset)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := memsim.NewCache(memsim.DefaultConfig(spec.LLCBytes))
	if err != nil {
		t.Fatal(err)
	}
	rig := &baselineRig{cache: cache}
	concurrent := scheme == SchemeC
	switch eng {
	case "gridgraph", "graphchi":
		disk := storage.NewDisk()
		disk.SetPageCache(spec.MemBudget)
		rig.mem = storage.NewMemory(disk, spec.MemBudget)
		if eng == "gridgraph" {
			grid, err := gridgraph.Build(g, gridP(spec), disk)
			if err != nil {
				t.Fatal(err)
			}
			r := gridgraph.NewRunner(grid, rig.mem, cache)
			r.Cores = 4
			rig.run = r.RunSequential
			if concurrent {
				rig.run = r.RunConcurrent
			}
		} else {
			shards, err := graphchi.Build(g, gridP(spec), disk)
			if err != nil {
				t.Fatal(err)
			}
			r := graphchi.NewRunner(shards, rig.mem, cache)
			r.Cores = 4
			rig.run = r.RunSequential
			if concurrent {
				rig.run = r.RunConcurrent
			}
		}
	case "powergraph", "chaos":
		perNode := spec.MemBudget * 8
		cl, err := cluster.New(8, perNode)
		if err != nil {
			t.Fatal(err)
		}
		rig.net = cl.Net
		if eng == "powergraph" {
			p, err := powergraph.Build(g, cl.Nodes)
			if err != nil {
				t.Fatal(err)
			}
			rig.mem = p.SharedMemory(perNode)
			r := powergraph.NewRunner(p, cl.Net, rig.mem, cache)
			rig.run = r.RunSequential
			if concurrent {
				rig.run = r.RunConcurrent
			}
		} else {
			s, err := chaos.Build(g, cl.Nodes, 4)
			if err != nil {
				t.Fatal(err)
			}
			rig.mem = s.SharedMemory(perNode)
			r := chaos.NewRunner(s, cl.Net, rig.mem, cache)
			rig.run = r.RunSequential
			if concurrent {
				rig.run = r.RunConcurrent
			}
		}
	default:
		t.Fatalf("unknown baseline engine %q", eng)
	}
	return rig
}

// baselineCases are the datasets and workload seeds the fingerprint runs:
// two in-memory graphs, and one out-of-core graph whose page-cache rereads
// exercise the disk-contention pricing of the C mode.
var baselineCases = []struct {
	dataset string
	seed    int64
}{
	{graph.PresetLiveJ, 1}, {graph.PresetLiveJ, 2},
	{graph.PresetOrkut, 1}, {graph.PresetOrkut, 2},
	{graph.PresetUKUnion, 1},
}

// TestBaselineFingerprints pins every simulated number the four baseline
// engines leave in both modes: each job's LLC counters and metrics, the
// cache totals, the memory peak, the disk the runner reads and the network
// bytes. The figures print these engines only as rounded makespans, so a
// drift too small for Table 4's two decimals shows here. Refresh with
// `go test ./internal/bench -run TestBaselineFingerprints -update` and
// explain every moved line.
func TestBaselineFingerprints(t *testing.T) {
	var b strings.Builder
	for _, eng := range []string{"gridgraph", "graphchi", "powergraph", "chaos"} {
		for _, scheme := range []string{SchemeS, SchemeC} {
			for _, c := range baselineCases {
				rig := newBaselineRig(t, eng, c.dataset, scheme)
				w := jobs.Rotation(14, c.seed)
				if err := rig.run(w.Jobs); err != nil {
					t.Fatalf("%s-%s %s seed %d: %v", eng, scheme, c.dataset, c.seed, err)
				}
				fmt.Fprintf(&b, "== %s-%s %s seed %d\n", eng, scheme, c.dataset, c.seed)
				for _, j := range w.Jobs {
					fmt.Fprintf(&b, "job %d: %+v %+v\n", j.ID, j.Ctr, j.Met)
				}
				disk := rig.mem.Disk()
				fmt.Fprintf(&b, "cache %d hits %d misses, peak %d bytes, disk %d bytes in %d reads",
					rig.cache.TotalHits(), rig.cache.TotalMisses(), rig.mem.Peak(), disk.ReadBytes(), disk.ReadOps())
				if rig.net != nil {
					fmt.Fprintf(&b, ", net %d bytes", rig.net.Bytes())
				}
				b.WriteString("\n")
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "baselines.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("baseline numbers drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, got, string(want))
	}
}
