// Package jobs builds the concurrent-job workloads of the paper's
// evaluation (Section 5.1): WCC, PageRank, SSSP and BFS submitted in turn
// with randomised parameters, either all at once or with Poisson(λ)
// inter-arrival times; plus replay of the social-network trace. Arrivals
// are stamped on the jobs (engine.Job.ArriveNS) in simulated nanoseconds,
// the time core.System.Run admits them on; no workload ever sleeps.
package jobs

import (
	"math/rand"

	"graphm/internal/algorithms"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/trace"
)

// Workload is a reproducible batch of jobs, each carrying its arrival
// stamp.
type Workload struct {
	Jobs []*engine.Job
}

// NewProgram instantiates a benchmark algorithm by name with randomised
// parameters drawn from rng (Section 5.1: random damping, random roots,
// random iteration budgets). Beyond the paper's four-job rotation it also
// covers the extended fallback set (k-core, label propagation, PPR) used by
// the per-algorithm scenario and benchmark suites.
func NewProgram(algo string, rng *rand.Rand) engine.Program {
	switch algo {
	case "pagerank":
		return algorithms.NewPageRank(0, 10) // damping randomised at Reset
	case "wcc":
		return algorithms.NewWCC(0) // budget randomised at Reset
	case "bfs":
		return algorithms.NewRandomBFS()
	case "sssp":
		return algorithms.NewRandomSSSP()
	case "kcore":
		return algorithms.NewKCore(0) // k drawn from [2,8] at Reset
	case "labelprop":
		return algorithms.NewLabelPropagation(0) // budget randomised at Reset
	case "ppr":
		return algorithms.NewRandomPPR()
	default:
		panic("jobs: unknown algorithm " + algo)
	}
}

// Rotation returns n jobs cycling WCC, PageRank, SSSP, BFS — the paper's
// submission rotation — with deterministic per-job seeds.
func Rotation(n int, seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{}
	for i := 0; i < n; i++ {
		algo := trace.Algorithms[i%len(trace.Algorithms)]
		w.Jobs = append(w.Jobs, engine.NewJob(i+1, NewProgram(algo, rng), rng.Int63()))
	}
	return w
}

// RotationOf returns n jobs all running the named algorithm (used by the
// scaling experiments, e.g. Figure 19's 16 PageRank jobs).
func RotationOf(algo string, n int, seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{}
	for i := 0; i < n; i++ {
		w.Jobs = append(w.Jobs, engine.NewJob(i+1, NewProgram(algo, rng), rng.Int63()))
	}
	return w
}

// Poisson stamps a rotation of n jobs with Poisson(λ jobs per unit)
// arrivals; unitNS is the simulated duration of one unit in nanoseconds
// (the paper uses λ=16 by default).
func Poisson(n int, lambda float64, unitNS uint64, seed int64) *Workload {
	w := Rotation(n, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	at := 0.0
	for _, j := range w.Jobs {
		at += rng.ExpFloat64() / lambda
		j.ArriveNS = uint64(at * float64(unitNS))
	}
	return w
}

// FromTrace converts trace events into a workload; hourNS is the simulated
// duration of one trace hour in nanoseconds.
func FromTrace(tr *trace.Trace, maxJobs int, hourNS uint64) *Workload {
	w := &Workload{}
	for i, e := range tr.Events {
		if maxJobs > 0 && i >= maxJobs {
			break
		}
		rng := rand.New(rand.NewSource(e.Seed))
		j := engine.NewJob(i+1, NewProgram(e.Algo, rng), e.Seed)
		j.ArriveNS = uint64(e.AtHour * float64(hourNS))
		w.Jobs = append(w.Jobs, j)
	}
	return w
}

// HopConstrained returns n BFS (or SSSP) jobs whose roots all lie within
// maxHops of a common centre vertex — the Figure 17 workload studying how
// root proximity strengthens access similarity.
func HopConstrained(algo string, n int, g *graph.Graph, centre graph.VertexID, maxHops int, seed int64) *Workload {
	dist := algorithms.ReferenceBFS(g, centre)
	var candidates []graph.VertexID
	for v, d := range dist {
		if d != algorithms.Unreached && int(d) <= maxHops {
			candidates = append(candidates, graph.VertexID(v))
		}
	}
	if len(candidates) == 0 {
		candidates = []graph.VertexID{centre}
	}
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{}
	for i := 0; i < n; i++ {
		root := candidates[rng.Intn(len(candidates))]
		var prog engine.Program
		if algo == "sssp" {
			prog = algorithms.NewSSSP(root)
		} else {
			prog = algorithms.NewBFS(root)
		}
		w.Jobs = append(w.Jobs, engine.NewJob(i+1, prog, rng.Int63()))
	}
	return w
}
