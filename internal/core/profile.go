package core

import (
	"graphm/internal/chunk"
	"graphm/internal/engine"
)

// Profiling phase of the synchronization manager (Section 3.4.2).
//
// For a newly submitted job j, GraphM captures the execution time T_ij of
// the job's first two processed partitions together with the edge counts of
// Formula (2):
//
//	T(F_j) * Σ_{k∈C_i} Σ_{v∈V_k∩A_j} N+_k(v)  +  T(E) * Σ_{k∈C_i} Σ_{v∈V_k} N+_k(v) = T_ij
//
// i.e. processed-edge work plus scanned-edge access. Two partitions give two
// equations in the unknowns T(F_j) and T(E); T(E) is a property of the
// machine/graph, profiled once and then pinned for later jobs.
//
// T_ij is read in simulated time (engine.StreamStats.SimNS), not
// wall-clock, so the profile — and every leader election it feeds — is the
// same on every run of the same serial schedule.

// profSample is one partition's worth of Formula (2) observations.
type profSample struct {
	processed float64 // Σ_{v∈V_k∩A_j} N+_k(v) over the partition's chunks
	scanned   float64 // Σ_{v∈V_k} N+_k(v) — every streamed edge
	elapsedNS float64 // T_ij in simulated ns (StreamStats.SimNS)
}

// profiler accumulates samples for one job and solves for T(F_j) and T(E).
type profiler struct {
	samples  []profSample
	tF       float64
	tE       float64
	profiled bool
}

// observe records one partition execution; once two samples with distinct
// workloads exist it solves the 2×2 system. sharedTE, when positive, pins
// T(E) (already profiled by an earlier job on the same graph) so a single
// sample suffices.
func (p *profiler) observe(s profSample, sharedTE float64) {
	if p.profiled {
		return
	}
	p.samples = append(p.samples, s)
	if sharedTE > 0 && s.processed > 0 {
		p.tE = sharedTE
		p.tF = (s.elapsedNS - sharedTE*s.scanned) / s.processed
		if p.tF < 0 {
			p.tF = 0
		}
		p.profiled = true
		return
	}
	if len(p.samples) < 2 {
		return
	}
	a, b := p.samples[len(p.samples)-2], p.samples[len(p.samples)-1]
	det := a.processed*b.scanned - b.processed*a.scanned
	if det == 0 {
		// Degenerate workloads (e.g. PageRank: processed == scanned); fall
		// back to attributing a fixed share to access.
		if a.scanned > 0 {
			p.tE = 0.3 * a.elapsedNS / a.scanned
			if a.processed > 0 {
				p.tF = 0.7 * a.elapsedNS / a.processed
			}
			p.profiled = true
		}
		return
	}
	p.tF = (a.elapsedNS*b.scanned - b.elapsedNS*a.scanned) / det
	p.tE = (a.processed*b.elapsedNS - b.processed*a.elapsedNS) / det
	if p.tF < 0 {
		p.tF = 0
	}
	if p.tE < 0 {
		p.tE = 0
	}
	p.profiled = true
}

// chunkLoad evaluates Formula (3): L_kj = T(F_j) * Σ_{v∈V_k∩A_j} N+_k(v),
// the job's compute load on one chunk given its active bitmap. With every
// vertex active the sum is the chunk's edge count; the per-entry sum is of
// integers far below 2^53, so it is exact and the shortcut bit-identical.
func chunkLoad(tF float64, t *chunk.Table, active *engine.Bitmap) float64 {
	if active.Full() {
		return tF * float64(t.NumEdges)
	}
	var processed float64
	for _, e := range t.Entries {
		if active.Has(int(e.Vertex)) {
			processed += float64(e.OutCnt)
		}
	}
	return tF * processed
}

// chunkLeadTime evaluates Formula (4): the leader additionally pays
// T(E) * Σ_{v∈V_k} N+_k(v) to pull the chunk into the LLC.
func chunkLeadTime(tF, tE float64, t *chunk.Table, active *engine.Bitmap) float64 {
	return chunkLoad(tF, t, active) + tE*float64(t.NumEdges)
}
