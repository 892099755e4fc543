// Package graphm's root benchmark file regenerates every table and figure
// of the paper's evaluation as a testing.B benchmark. Each benchmark runs
// the corresponding experiment once per iteration and reports the tables on
// stdout for the first iteration, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation, and
//
//	go test -bench=BenchmarkFig09 -benchmem
//
// reproduces a single figure. The same experiments are available without
// the benchmark harness via cmd/graphm-bench.
package graphm_test

import (
	"io"
	"os"
	"testing"

	"graphm/internal/bench"
)

// runExperiment executes one experiment b.N times, printing tables only on
// the first iteration to keep -benchtime runs readable.
func runExperiment(b *testing.B, name string, jobs int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		var out io.Writer = os.Stdout
		if i > 0 {
			out = io.Discard
		}
		h := bench.New(out)
		h.JobCount = jobs
		h.Cores = 8
		if err := h.Run(name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay replays two days of the week-in-the-life trace through
// the admission service on a virtual clock at three in-flight caps — the
// service-era successor of the Figure 15 trace replay.
func BenchmarkReplay(b *testing.B) { runExperiment(b, "replay", 16) }

// BenchmarkDurability runs the durable-storage experiment: WAL overhead on
// serial evolve ops, group-commit fsync coalescing under concurrent
// writers, and the checkpoint compression ratio plus a crash-recovery
// differential.
func BenchmarkDurability(b *testing.B) { runExperiment(b, "durability", 8) }

// BenchmarkFig02Trace regenerates Figure 2 (the week-long job trace).
func BenchmarkFig02Trace(b *testing.B) { runExperiment(b, "fig2", 16) }

// BenchmarkFig03Motivation regenerates Figure 3 (concurrent jobs on plain
// GridGraph: memory, LLC misses, LPI, per-job time for 1/2/4/8 jobs).
func BenchmarkFig03Motivation(b *testing.B) { runExperiment(b, "fig3", 16) }

// BenchmarkFig04Similarity regenerates Figure 4 (spatial/temporal
// similarity of the trace).
func BenchmarkFig04Similarity(b *testing.B) { runExperiment(b, "fig4", 16) }

// BenchmarkTable3Preprocess regenerates Table 3 (preprocessing cost of
// GridGraph vs GridGraph-M plus metadata overhead).
func BenchmarkTable3Preprocess(b *testing.B) { runExperiment(b, "table3", 16) }

// BenchmarkFig09Overall regenerates Figure 9 (total execution time of 16
// concurrent jobs under S/C/M across the five datasets).
func BenchmarkFig09Overall(b *testing.B) { runExperiment(b, "fig9", 16) }

// BenchmarkFig10Breakdown regenerates Figure 10 (processing vs data-access
// breakdown).
func BenchmarkFig10Breakdown(b *testing.B) { runExperiment(b, "fig10", 16) }

// BenchmarkFig11Memory regenerates Figure 11 (memory usage).
func BenchmarkFig11Memory(b *testing.B) { runExperiment(b, "fig11", 16) }

// BenchmarkFig12IO regenerates Figure 12 (total I/O overhead).
func BenchmarkFig12IO(b *testing.B) { runExperiment(b, "fig12", 16) }

// BenchmarkFig13LLCMissRate regenerates Figure 13 (LLC miss rate).
func BenchmarkFig13LLCMissRate(b *testing.B) { runExperiment(b, "fig13", 16) }

// BenchmarkFig14SwappedVolume regenerates Figure 14 (volume swapped into
// the LLC).
func BenchmarkFig14SwappedVolume(b *testing.B) { runExperiment(b, "fig14", 16) }

// BenchmarkFig15TraceReplay regenerates Figure 15 (trace-replay
// throughput).
func BenchmarkFig15TraceReplay(b *testing.B) { runExperiment(b, "fig15", 16) }

// BenchmarkFig16Lambda regenerates Figure 16 (sensitivity to the Poisson
// submission rate).
func BenchmarkFig16Lambda(b *testing.B) { runExperiment(b, "fig16", 16) }

// BenchmarkFig17RootDistance regenerates Figure 17 (BFS/SSSP root
// proximity).
func BenchmarkFig17RootDistance(b *testing.B) { runExperiment(b, "fig17", 16) }

// BenchmarkFig18Scheduling regenerates Figure 18 (the Section 4 scheduling
// strategy ablation).
func BenchmarkFig18Scheduling(b *testing.B) { runExperiment(b, "fig18", 16) }

// BenchmarkFig19JobScaling regenerates Figure 19 (scaling the number of
// concurrent PageRank jobs).
func BenchmarkFig19JobScaling(b *testing.B) { runExperiment(b, "fig19", 16) }

// BenchmarkFig20CoreScaling regenerates Figure 20 (scaling the number of
// cores).
func BenchmarkFig20CoreScaling(b *testing.B) { runExperiment(b, "fig20", 16) }

// BenchmarkFig21Distributed regenerates Figure 21 (PowerGraph/Chaos
// scalability on the simulated cluster).
func BenchmarkFig21Distributed(b *testing.B) { runExperiment(b, "fig21", 8) }

// BenchmarkTable4OtherSystems regenerates Table 4 (GraphChi, PowerGraph and
// Chaos integrated with GraphM).
func BenchmarkTable4OtherSystems(b *testing.B) { runExperiment(b, "table4", 8) }

// BenchmarkAblation runs the design-choice ablations DESIGN.md calls out
// (Formula-1 chunk sizing and fine-grained synchronization).
func BenchmarkAblation(b *testing.B) { runExperiment(b, "ablation", 16) }

// BenchmarkOpenLoop runs the open-arrival scenario: jobs admitted online by
// the service layer at increasing Poisson rates, measuring how arrival
// density drives load sharing.
func BenchmarkOpenLoop(b *testing.B) { runExperiment(b, "openloop", 12) }

// BenchmarkHotpathSerial runs the chunk-apply hot-path throughput
// experiment, pinned by the perf regression gate: scanned edges per second
// (Medges/s) of the streaming driver (two-phase under FineSync).
func BenchmarkHotpathSerial(b *testing.B) { runExperiment(b, "hotpath-serial", 8) }

// The per-algorithm serial hot-path gates: one homogeneous 8-job rotation
// per batched fallback algorithm, so a regression in a single algorithm's
// ProcessEdges or state-batching path is pinned individually by benchgate
// instead of being averaged away inside the mixed rotation.

// BenchmarkHotpathSerialWCC pins the WCC (full-active, memoised) hot path.
func BenchmarkHotpathSerialWCC(b *testing.B) { runExperiment(b, "hotpath-serial-wcc", 8) }

// BenchmarkHotpathSerialBFS pins the BFS (sparse-frontier, gated) hot path.
func BenchmarkHotpathSerialBFS(b *testing.B) { runExperiment(b, "hotpath-serial-bfs", 8) }

// BenchmarkHotpathSerialSSSP pins the SSSP (sparse-frontier, gated) hot path.
func BenchmarkHotpathSerialSSSP(b *testing.B) { runExperiment(b, "hotpath-serial-sssp", 8) }

// BenchmarkHotpathSerialKCore pins the k-core (peeling) hot path.
func BenchmarkHotpathSerialKCore(b *testing.B) { runExperiment(b, "hotpath-serial-kcore", 8) }

// BenchmarkHotpathSerialLabelProp pins the label-propagation hot path.
func BenchmarkHotpathSerialLabelProp(b *testing.B) { runExperiment(b, "hotpath-serial-labelprop", 8) }

// BenchmarkHotpathSerialPPR pins the personalised-PageRank hot path.
func BenchmarkHotpathSerialPPR(b *testing.B) { runExperiment(b, "hotpath-serial-ppr", 8) }

// BenchmarkServeHTTP fires the Figure-2 trace through the HTTP daemon over a
// real loopback socket, open-loop at 10x and 50x the compressed trace rate,
// reporting the accept/backpressure split and the daemon's rolling-window
// queue-wait SLOs at drain.
func BenchmarkServeHTTP(b *testing.B) { runExperiment(b, "serve-http", 8) }
