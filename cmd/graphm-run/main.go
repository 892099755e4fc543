// Command graphm-run executes an ad-hoc concurrent workload on a dataset
// under a chosen engine and execution scheme, and prints a per-job and
// aggregate report — the day-to-day tool a platform operator would use to
// size a GraphM deployment.
//
// Usage:
//
//	graphm-run -dataset twitter -scheme M -jobs 8
//	graphm-run -dataset uk-union -scheme C -algos pagerank,bfs -jobs 4
//	graphm-run -dataset livej -scheme M -algos ppr,labelprop,kcore -cores 4
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"text/tabwriter"

	"graphm/internal/algorithms"
	"graphm/internal/bench"
	"graphm/internal/engine"
	"graphm/internal/jobs"
)

func main() {
	var (
		dataset = flag.String("dataset", "twitter", "dataset preset")
		scheme  = flag.String("scheme", "M", "execution scheme: S, C or M")
		nJobs   = flag.Int("jobs", 8, "number of concurrent jobs")
		cores   = flag.Int("cores", 8, "simulated core count (GridGraph-C starts every job at once whatever it is)")
		algos   = flag.String("algos", "", "comma-separated algorithm rotation (default: wcc,pagerank,sssp,bfs)")
		seed    = flag.Int64("seed", 42, "workload seed")
	)
	flag.Parse()

	env, err := bench.NewGridEnv(*dataset)
	if err != nil {
		fatal(err)
	}
	// RunScheme builds the workload once; keep it for the per-job report, so
	// the aggregate and the table describe the same run.
	var w *jobs.Workload
	wf := func() *jobs.Workload {
		w = buildWorkload(*algos, *nJobs, *seed)
		return w
	}
	res, err := env.RunScheme(strings.ToUpper(*scheme), wf, bench.RunOptions{Cores: *cores})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("dataset %s: %d vertices, %d edges (out-of-core: %v), grid %dx%d\n",
		env.Spec.Name, env.Spec.NumV, env.Spec.NumE, env.Spec.OutOfCore, env.GridP, env.GridP)
	fmt.Printf("scheme GridGraph-%s, %d jobs, %d cores\n\n", strings.ToUpper(*scheme), *nJobs, *cores)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "job\talgorithm\titers\tscanned\tprocessed\tLLC miss\tsim time")
	for _, j := range w.Jobs {
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%d\t%.1f%%\t%.3fs\n",
			j.ID, j.Prog.Name(), j.Met.Iterations, j.Met.ScannedEdges, j.Met.ProcessedEdges,
			100*j.Ctr.MissRate(), float64(j.Met.SimTotalNS())/1e9)
	}
	tw.Flush()

	fmt.Printf("\naggregate: makespan %.3fs (sim), wall %v\n", res.MakespanSec(), res.Wall)
	fmt.Printf("I/O: %.2f MB read in %d ops; peak memory %.2f MB\n",
		float64(res.IOBytes)/(1<<20), res.IOLoads, float64(res.MemPeak)/(1<<20))
	fmt.Printf("LLC: %.1f%% miss rate, %.2f MB swapped in\n",
		100*res.LLCMissRate(), float64(res.SwappedBytes)/(1<<20))
	if res.SysStats != nil {
		fmt.Printf("GraphM: %d rounds, %d shared loads, %d chunks of %d bytes, %d suspensions\n",
			res.SysStats.Rounds, res.SysStats.SharedLoads, res.SysStats.NumChunks,
			res.SysStats.ChunkBytes, res.SysStats.Suspensions)
	}
}

// buildWorkload assembles the rotation, honouring a custom algorithm list.
func buildWorkload(algos string, n int, seed int64) *jobs.Workload {
	if algos == "" {
		return jobs.Rotation(n, seed)
	}
	names := strings.Split(algos, ",")
	rng := rand.New(rand.NewSource(seed))
	w := &jobs.Workload{}
	for i := 0; i < n; i++ {
		name := strings.TrimSpace(names[i%len(names)])
		w.Jobs = append(w.Jobs, engine.NewJob(i+1, newProgram(name, rng), rng.Int63()))
		w.Delay = append(w.Delay, 0)
	}
	return w
}

// newProgram extends the benchmark rotation with the extra algorithms.
func newProgram(name string, rng *rand.Rand) engine.Program {
	switch name {
	case "ppr":
		return algorithms.NewRandomPPR()
	case "labelprop":
		return algorithms.NewLabelPropagation(0)
	case "kcore":
		return algorithms.NewKCore(0)
	default:
		return jobs.NewProgram(name, rng)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "graphm-run: %v\n", err)
	os.Exit(1)
}
