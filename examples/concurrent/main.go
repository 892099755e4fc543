// Concurrent analytics service: the paper's motivating scenario.
//
// A stream of analytics jobs (the WCC / PageRank / SSSP / BFS rotation with
// randomised parameters) arrives with Poisson timing at a platform holding
// one social graph — the situation of Figure 2. λ counts jobs per mean
// simulated job duration (bench.RunArrivals). The example executes the
// same workload three ways and prints the comparison the paper makes:
//
//	S — jobs queued and run one at a time on plain GridGraph
//	C — jobs run concurrently, each with its own graph copy (OS-managed)
//	M — jobs run concurrently under GraphM, sharing one copy
//
//	go run ./examples/concurrent [-jobs 12] [-lambda 8]
package main

import (
	"flag"
	"fmt"
	"log"

	"graphm/internal/bench"
	"graphm/internal/graph"
	"graphm/internal/jobs"
)

func main() {
	nJobs := flag.Int("jobs", 12, "number of jobs in the arrival stream")
	lambda := flag.Float64("lambda", 8, "Poisson arrival rate, in jobs per mean job duration")
	flag.Parse()

	env, err := bench.NewGridEnv(graph.PresetUKUnion)
	if err != nil {
		log.Fatal(err)
	}
	spec := env.Spec
	fmt.Printf("platform graph: %q, %d vertices, %d edges (out-of-core: %v)\n",
		spec.Name, spec.NumV, spec.NumE, spec.OutOfCore)
	fmt.Printf("workload: %d jobs, Poisson lambda=%.0f, rotation wcc/pagerank/sssp/bfs\n\n",
		*nJobs, *lambda)

	all, err := env.RunArrivals(func(unitNS uint64) *jobs.Workload {
		return jobs.Poisson(*nJobs, *lambda, unitNS, 7)
	}, bench.RunOptions{Cores: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("scheme  makespan(sim s)  I/O read   LLC miss rate  peak memory")
	for _, res := range all {
		fmt.Printf("%-6s  %-15.3f  %-9s  %-13.1f%%  %.1fMB\n",
			"GG-"+res.Scheme, res.MakespanSec(),
			fmt.Sprintf("%.1fMB", float64(res.IOBytes)/(1<<20)),
			100*res.LLCMissRate(),
			float64(res.MemPeak)/(1<<20))
	}
	fmt.Printf("\nGraphM speedup vs sequential: shown by makespan ratio (S=%.3fs)\n", all[0].MakespanSec())
}
