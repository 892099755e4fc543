// Package engine defines the engine-neutral contract between graph
// algorithms and the engine substrates (GridGraph, GraphChi, PowerGraph,
// Chaos). An algorithm is an iterative edge program operating on
// job-specific vertex state; an engine owns partition layout, streaming
// order and parallelism. GraphM (internal/core) sits between the two,
// regularising the streaming order across concurrent jobs.
package engine

import (
	"math/rand"

	"graphm/internal/graph"
)

// Program is an iterative graph algorithm in the edge-streaming model shared
// (after layout differences) by all four engine substrates. One Program
// instance is one job's algorithm + job-specific data S; the graph structure
// data G is owned by the engine/storage layers.
//
// Engines drive a Program as:
//
//	prog.Reset(g, rng)
//	for iter := 0; prog.BeforeIteration(iter); iter++ {
//	    for each streamed edge e with prog.Active().Has(e.Src):
//	        prog.ProcessEdge(e)
//	    prog.AfterIteration(iter)
//	}
//
// ProcessEdge must be safe for concurrent calls only when the engine
// declares it partitions edges disjointly by destination; the provided
// engines serialise per job, matching the paper's per-job thread model.
type Program interface {
	// Name identifies the algorithm (e.g. "pagerank").
	Name() string

	// Reset binds the program to a graph and draws job parameters (damping
	// factor, root vertex, iteration budget) from rng, as Section 5.1
	// randomises them per job.
	Reset(g *graph.Graph, rng *rand.Rand)

	// BeforeIteration prepares iteration iter (0-based) and reports whether
	// the job still has work. Returning false terminates the job.
	BeforeIteration(iter int) bool

	// ProcessEdge applies the edge function F_j to one streamed edge whose
	// source is active. It returns true if the edge activated its
	// destination for the next iteration.
	ProcessEdge(e graph.Edge) bool

	// AfterIteration commits iteration results (frontier swap, rank scale).
	AfterIteration(iter int)

	// Active returns the current iteration's active-source bitmap.
	Active() *Bitmap

	// StateBytes returns the size of the job-specific data S, charged
	// against the simulated memory budget (U_v * |V| plus frontiers).
	StateBytes() int64

	// EdgeCost returns the relative computational complexity T(F_j) of one
	// ProcessEdge call in abstract work units; the synchronization manager
	// profiles the true value at run time, this is the ground truth used by
	// the simulated-time model.
	EdgeCost() float64
}

// BatchProgram is an optional Program extension for batch-capable engines:
// ProcessEdges applies the edge function to every edge of the slice whose
// source is set in active, in slice order, and returns how many edges were
// processed and how many activated their destination. It must be observably
// identical to calling ProcessEdge on each active-source edge in order —
// same state mutations, same floating-point operation order, same counts —
// so engines may use either path interchangeably. Job.ApplyChunk uses it to
// skip the per-edge interface dispatch on the hot path, falling back to
// ProcessEdge for programs that do not implement it.
//
// Implementations must treat active as read-only: the engine may pass a
// pre-gated edge slice with a shared all-active bitmap in place of the
// program's own frontier (it already paid the per-edge probes while
// collecting the chunk's state accesses), so writes belong on the program's
// own next-frontier state, never on the parameter.
type BatchProgram interface {
	Program
	ProcessEdges(edges []graph.Edge, active *Bitmap) (processed, activated uint64)
}

// Metrics aggregates one job's work counters; engines update it while
// streaming and the bench harness converts it into the paper's reported
// quantities.
type Metrics struct {
	ScannedEdges   uint64 // edges streamed past the job (data access)
	ProcessedEdges uint64 // edges whose source was active (compute)
	Iterations     uint64
	PartitionLoads uint64 // partition buffers this job requested
	SimComputeNS   uint64 // simulated compute time, ns
	SimMemNS       uint64 // simulated memory-level access time (LLC/DRAM), ns
	SimIONS        uint64 // simulated serial-resource access time (disk, NIC), ns
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.ScannedEdges += other.ScannedEdges
	m.ProcessedEdges += other.ProcessedEdges
	m.Iterations += other.Iterations
	m.PartitionLoads += other.PartitionLoads
	m.SimComputeNS += other.SimComputeNS
	m.SimMemNS += other.SimMemNS
	m.SimIONS += other.SimIONS
}

// WorkCounters is the schedule-independent slice of Metrics: the counters
// that depend only on what the job computed, never on when or at what chunk
// granularity the work was streamed. For one workload they must be identical
// across runs, two-phase window sizes, and static vs adaptive chunk
// labelling — which makes them the equality basis for the
// scenario harness's invariant checks and for overlap tests that must not
// assert on wall-clock time.
type WorkCounters struct {
	ScannedEdges   uint64
	ProcessedEdges uint64
	Iterations     uint64
	PartitionLoads uint64
}

// Work extracts the schedule-independent counters. The simulated-time fields
// are deliberately excluded: LLC hit/miss pricing shifts with chunk
// labelling, I/O shares shift with attendance, and even SimComputeNS is
// truncated to whole nanoseconds once per chunk application, so it drifts by
// a few ns when the same edges are applied at a different chunk granularity.
func (m *Metrics) Work() WorkCounters {
	return WorkCounters{
		ScannedEdges:   m.ScannedEdges,
		ProcessedEdges: m.ProcessedEdges,
		Iterations:     m.Iterations,
		PartitionLoads: m.PartitionLoads,
	}
}

// SimAccessNS returns the simulated data-access time (memory + I/O), the
// quantity Figure 10 breaks out against graph processing time.
func (m *Metrics) SimAccessNS() uint64 { return m.SimMemNS + m.SimIONS }

// SimTotalNS returns the simulated execution time.
func (m *Metrics) SimTotalNS() uint64 { return m.SimComputeNS + m.SimAccessNS() }
