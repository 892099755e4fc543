// Package graphm is a from-scratch Go reproduction of "GraphM: An Efficient
// Storage System for High Throughput of Concurrent Graph Processing"
// (Zhao et al., SC'19).
//
// GraphM is a storage runtime that plugs into existing graph engines so
// that concurrent iterative jobs over the same graph share one copy of the
// graph structure in memory and in the last-level cache, streaming it in a
// common chunk-synchronized order. See README.md for a tour,
// docs/ARCHITECTURE.md for the layer diagram and package map, and
// docs/API.md for the daemon's HTTP API reference.
//
// The public surface lives under internal/ because this is a reproduction
// repository; the root package carries the module documentation and the
// benchmark suite (bench_test.go) that regenerates every table and figure
// of the paper's evaluation:
//
//	go test -bench=. -benchmem
//
// or, experiment by experiment:
//
//	go run ./cmd/graphm-bench -list
//
// # The streaming driver
//
// Simulated time (the figures) is priced from counted work and does not
// depend on real parallelism. core.NewSystem labels every partition's
// chunks once (Formula (1) with N = Config.Cores, then Algorithm 1), and
// the labelling stays fixed for the System's lifetime. Every job's partitions stream through
// core.SharedPartition.ProcessAll, which streams a partition in two
// phases, a window of chunks at a time: the last attending job to reach
// the window becomes its owner and computes every attendee's chunks of it
// (engine.Job.OpenChunk, then engine.Job.CollectChunk), while a pricing
// goroutine, one attendee's copy behind, prices each collected chunk of
// every attendee against the simulated LLC. Under
// FineSync it prices in lockstep order — each chunk's Formula (4) leader
// first, then ascending job ID, every attendee's scan of the chunk
// (engine.Job.PriceStream) before any attendee's state accesses
// (engine.Job.PriceChunk); in Share-only it prices one attendee's whole
// window after another's. The baseline engines' concurrent jobs take turns
// through engine.Interleave, one partition each at a time. Job goroutines park once per window rather than
// twice per chunk, the collection and the pricing keep two cores busy, and
// every simulated number is independent of goroutine interleaving. CI
// gates ns/op regressions against the committed BENCH_baseline.json (see
// README.md, "CI").
//
// core.System.Run admits each job once the controller's simulated clock
// reaches its arrival stamp (engine.Job.ArriveNS). The clock advances by
// the disk time of every partition load and the compute and memory time
// of every priced window over Config.Cores, and jumps to the next stamp
// when no job is live. Admission happens only at the round barrier, in
// stamp order and then by job ID, so Figures 15 and 16, whose workloads
// arrive over time (bench.GridEnv.RunArrivals), reproduce byte for byte.
//
// # The hot path
//
// The innermost loop — one job applying one chunk with full LLC
// simulation — is batched at every layer while preserving the simulator's
// observable behaviour. The 12-byte-edge stream is walked in 64-byte
// cache-line runs (~5.3 edges), a chunk's runs accounted in one lock-free
// pass (memsim.Cache.ScanChunk: each run's first access resolves hit or
// miss, the rest are hits by construction — every simulated cache has one
// writer at a time, so the model takes no locks); each
// simulated set is a recency stack of tags, MRU first, so an MRU run costs
// a compare and a miss one shift-down pass that drops the last way;
// the chunk's state accesses are settled per cache set from per-line
// aggregates (memsim.Cache.GroupEntries + TouchGrouped); hit/miss/processed
// tallies accumulate as integers and land in the job's Counters and the
// cache-wide totals once per chunk; simulated
// time is priced with a handful of multiplications at chunk end; and
// programs implementing engine.BatchProgram process a chunk per call
// instead of an interface dispatch per edge. The per-edge reference
// model survives as a per-edge engine.Job.OpenChunk (core.Config.PerEdgeSim),
// and the scenario harness proves the two count every LLC hit and miss
// identically. On the controller side, each partition's window waiters
// park on its own wait list instead of one global broadcast, so a priced
// window wakes its own attendees and nobody else. The `hotpath-serial`
// bench experiment reports streaming throughput (Medges/s) and is pinned
// by the CI perf gate.
//
// # Trace replay on a virtual clock
//
// internal/replay drives the paper's motivating week-long trace (Figure 2,
// synthesized by internal/trace) through the admission service with no
// wall-time sleeps: a discrete-event loop owns a core.VirtualClock
// (injected via service.Config.Clock) and plays arrivals and virtual job
// departures in simulated-time order, while every job genuinely streams
// the graph through core.System. Drivers that finish streaming park in
// service.Config.FinishGate until their virtual departure, so queue waits,
// runtimes and admission order are a pure function of (trace, seed) — the
// ticket log is byte-identical across same-seed runs, a week replays in
// seconds, and the report carries p50/p99 queue waits, per-tenant
// admission counters and the Figure 4 shared fraction next to the real
// controller counters. cmd/graphm-replay is the CLI; the `replay` bench
// experiment sweeps the in-flight cap (the Figure 15 shape).
//
// # The HTTP daemon
//
// internal/server wraps the admission service in a long-running HTTP/JSON
// daemon (cmd/graphm-serve -listen): POST /v1/jobs submits under an
// X-Tenant key (token-bucket rate limiting per tenant, queue-full → 429
// backpressure with Retry-After), GET/DELETE /v1/jobs/{id} poll and cancel
// tickets, POST /v1/drain — or SIGTERM — stops admission, runs every
// in-flight ticket down and reports the final recovery state, and GET
// /metrics exports the runtime counters plus rolling-window queue-wait and
// runtime SLOs in Prometheus text format with no external dependencies.
// The quantile math lives in internal/slo, shared with the offline replay
// reports: both paths retain exact samples and use nearest-rank
// percentiles, so the daemon's online p50/p90/p99 are differentially
// tested against the offline computation — including over a real loopback
// socket by the Figure-2 load test and the `serve-http` bench experiment.
// docs/API.md is the endpoint reference; examples/daemon is a runnable
// client.
//
// # Differential scenario fuzzing
//
// internal/scenario additionally generates its own dynamic-concurrency
// scripts: GenerateScript draws a valid barrier-anchored timeline from a
// seed, DiffCheck replays it across configurations (Formula (1) labellings
// for 1 and for 8 cores, per-edge vs run-length LLC accounting) and applies
// every invariant the harness owns, and Minimize shrinks failures to
// corpus-ready counterexamples
// (internal/scenario/testdata/corpus, replayed as regressions). CI runs 50
// fixed-seed scripts per push; GRAPHM_FUZZ_SCRIPTS and a native go-fuzz
// target scale it to nightly length.
package graphm
