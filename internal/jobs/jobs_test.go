package jobs

import (
	"math/rand"
	"testing"

	"graphm/internal/algorithms"
	"graphm/internal/graph"
	"graphm/internal/trace"
)

func TestNewProgramKnownAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, a := range []string{"pagerank", "wcc", "bfs", "sssp"} {
		p := NewProgram(a, rng)
		if p.Name() != a {
			t.Errorf("NewProgram(%q).Name() = %q", a, p.Name())
		}
	}
}

func TestNewProgramUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown algorithm")
		}
	}()
	NewProgram("quicksort", rand.New(rand.NewSource(1)))
}

func TestRotationCyclesAlgorithms(t *testing.T) {
	w := Rotation(8, 1)
	if len(w.Jobs) != 8 {
		t.Fatalf("jobs = %d, want 8", len(w.Jobs))
	}
	for i, j := range w.Jobs {
		want := trace.Algorithms[i%len(trace.Algorithms)]
		if j.Prog.Name() != want {
			t.Errorf("job %d runs %q, want %q", i, j.Prog.Name(), want)
		}
		if j.ID != i+1 {
			t.Errorf("job %d has ID %d", i, j.ID)
		}
	}
}

func TestRotationDeterministic(t *testing.T) {
	g, _ := graph.GenerateUniform("d", 100, 400, 5)
	run := func() []uint32 {
		w := Rotation(4, 9)
		b := w.Jobs[3] // bfs
		b.Bind(g)
		return b.Prog.(*algorithms.BFS).Dist()
	}
	_ = run
	w1, w2 := Rotation(4, 9), Rotation(4, 9)
	b1, b2 := w1.Jobs[3].Prog.(*algorithms.BFS), w2.Jobs[3].Prog.(*algorithms.BFS)
	w1.Jobs[3].Bind(g)
	w2.Jobs[3].Bind(g)
	if b1.Root != b2.Root {
		t.Fatalf("same seed produced different roots: %d vs %d", b1.Root, b2.Root)
	}
}

func TestPoissonDelaysIncrease(t *testing.T) {
	w := Poisson(10, 4, 1e6, 3)
	var prev uint64
	for i, j := range w.Jobs {
		if j.ArriveNS <= prev {
			t.Fatalf("stamp %d not increasing: %d after %d", i, j.ArriveNS, prev)
		}
		prev = j.ArriveNS
	}
}

func TestPoissonHigherLambdaDenser(t *testing.T) {
	slow := Poisson(16, 2, 1e6, 3)
	fast := Poisson(16, 16, 1e6, 3)
	if fast.Jobs[15].ArriveNS >= slow.Jobs[15].ArriveNS {
		t.Fatalf("lambda=16 span %d not denser than lambda=2 span %d",
			fast.Jobs[15].ArriveNS, slow.Jobs[15].ArriveNS)
	}
}

// TestPoissonUnitScalesStamps checks that the unit is the only scale: the
// same seed at twice the unit stamps every job twice as late, and unit 0
// stamps every job 0.
func TestPoissonUnitScalesStamps(t *testing.T) {
	one, two, zero := Poisson(8, 4, 1e6, 3), Poisson(8, 4, 2e6, 3), Poisson(8, 4, 0, 3)
	for i := range one.Jobs {
		a, b := one.Jobs[i].ArriveNS, two.Jobs[i].ArriveNS
		if b < 2*a-1 || b > 2*a+1 {
			t.Fatalf("job %d: stamp %d at twice the unit, want about %d", i, b, 2*a)
		}
		if zero.Jobs[i].ArriveNS != 0 {
			t.Fatalf("job %d: stamp %d at unit 0", i, zero.Jobs[i].ArriveNS)
		}
	}
}

func TestFromTraceRespectsLimitAndDelays(t *testing.T) {
	tr := trace.Generate(24, 5)
	w := FromTrace(tr, 10, 1e6)
	if len(w.Jobs) != 10 {
		t.Fatalf("jobs = %d, want 10", len(w.Jobs))
	}
	for i, j := range w.Jobs {
		want := uint64(tr.Events[i].AtHour * 1e6)
		if j.ArriveNS != want {
			t.Fatalf("stamp %d = %d, want %d", i, j.ArriveNS, want)
		}
	}
}

func TestHopConstrainedRootsWithinHops(t *testing.T) {
	g, _ := graph.GenerateRMAT(graph.DefaultRMAT("h", 500, 4000, 7))
	centre, _ := g.MaxOutDegree()
	dist := algorithms.ReferenceBFS(g, centre)
	for hops := 1; hops <= 3; hops++ {
		w := HopConstrained("bfs", 8, g, centre, hops, 11)
		for i, j := range w.Jobs {
			root := j.Prog.(*algorithms.BFS).Root
			if dist[root] == algorithms.Unreached || int(dist[root]) > hops {
				t.Fatalf("hops=%d job %d root %d at distance %d", hops, i, root, dist[root])
			}
		}
	}
}

func TestHopConstrainedSSSP(t *testing.T) {
	g, _ := graph.GenerateUniform("s", 200, 1000, 3)
	w := HopConstrained("sssp", 4, g, 0, 2, 5)
	for _, j := range w.Jobs {
		if j.Prog.Name() != "sssp" {
			t.Fatalf("got %q", j.Prog.Name())
		}
	}
}
