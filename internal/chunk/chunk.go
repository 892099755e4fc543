// Package chunk implements GraphM's logical chunking of graph partitions
// (Section 3.2 of the paper): Formula (1) chunk sizing, the Algorithm 1
// partition-labelling pass, and the chunk_table / Set_c metadata used by the
// synchronization manager.
//
// Chunks are *logical*: the engine's native partition layout is never
// modified. A chunk is a contiguous run of the partition's edge stream whose
// bytes fit in the LLC alongside the concurrent jobs' vertex data, so that
// once streamed in, it can be reused by every concurrent job before being
// displaced.
package chunk

import (
	"fmt"

	"graphm/internal/graph"
)

// SizeParams carries the quantities of Formula (1).
type SizeParams struct {
	NumCores  int   // N: worker threads of a running job
	LLCBytes  int64 // C_LLC: simulated LLC capacity
	GraphSize int64 // S_G: size of the graph data in bytes
	NumV      int64 // |V|
	VertexPay int64 // U_v: bytes of job-specific data per vertex
	Reserved  int64 // r: reserved LLC space
}

// alignment: chunk size must be a common multiple of the edge size and the
// cache-line size for locality (Section 3.2).
func alignment() int64 {
	return lcm(graph.EdgeSize, 64)
}

// ChunkSize returns the largest S_c satisfying Formula (1):
//
//	S_c*N + S_c*N/S_G*|V|*U_v + r <= C_LLC
//
// rounded down to a common multiple of the edge size and cache-line size and
// clamped to at least one aligned unit so degenerate configurations still
// stream correctly.
func ChunkSize(p SizeParams) (int64, error) {
	if p.NumCores <= 0 || p.LLCBytes <= 0 || p.GraphSize <= 0 || p.NumV <= 0 {
		return 0, fmt.Errorf("chunk: invalid size params %+v", p)
	}
	avail := p.LLCBytes - p.Reserved
	if avail <= 0 {
		return 0, fmt.Errorf("chunk: reserved space %d exceeds LLC %d", p.Reserved, p.LLCBytes)
	}
	// S_c * (N + N*|V|*U_v/S_G) <= avail
	denom := float64(p.NumCores) * (1 + float64(p.NumV)*float64(p.VertexPay)/float64(p.GraphSize))
	sc := int64(float64(avail) / denom)
	a := alignment()
	sc -= sc % a
	if sc < a {
		sc = a
	}
	return sc, nil
}

// Entry is one chunk_table key-value pair: a source vertex appearing in the
// chunk and the number of its out-going edges within the chunk (N+_k(v)).
type Entry struct {
	Vertex graph.VertexID
	OutCnt uint32
}

// Table describes one logical chunk of a partition.
type Table struct {
	// FirstEdge and NumEdges delimit the chunk within the partition's edge
	// stream.
	FirstEdge int
	NumEdges  int
	// Entries lists (source vertex, out-degree within chunk) in first-seen
	// order, exactly as Algorithm 1 builds c_table.
	Entries []Entry
	index   map[graph.VertexID]uint32
}

// OutCount returns N+_k(v): the number of v's out-edges inside this chunk.
func (t *Table) OutCount(v graph.VertexID) uint32 {
	if t.index == nil {
		t.index = make(map[graph.VertexID]uint32, len(t.Entries))
		for _, e := range t.Entries {
			t.index[e.Vertex] = e.OutCnt
		}
	}
	return t.index[v]
}

// TotalEdges returns the sum over entries of N+_k(v); equals NumEdges.
func (t *Table) TotalEdges() int {
	sum := 0
	for _, e := range t.Entries {
		sum += int(e.OutCnt)
	}
	return sum
}

// Set is Set_c of the paper: the ordered chunk tables of one partition.
// A Set is immutable once built.
type Set struct {
	PartitionID int
	ChunkBytes  int64
	Chunks      []*Table
}

// Label runs Algorithm 1 over the edges of a partition, producing its Set_c.
// edges is the partition's edge stream in the order it is streamed into the
// LLC; graphSize and totalEdges are S_G and |E| of the whole graph (the
// algorithm's termination test scales edge counts by S_G/|E|, which equals
// the edge size).
func Label(partitionID int, edges []graph.Edge, chunkBytes int64) *Set {
	set := &Set{PartitionID: partitionID, ChunkBytes: chunkBytes}
	if len(edges) == 0 {
		return set
	}
	edgesPerChunk := EdgesPerChunk(chunkBytes)
	var (
		cur   *Table
		idx   map[graph.VertexID]int // vertex -> entry position in cur
		count int
	)
	reset := func(first int) {
		cur = &Table{FirstEdge: first}
		idx = make(map[graph.VertexID]int)
		count = 0
	}
	reset(0)
	for i, e := range edges {
		if pos, ok := idx[e.Src]; ok {
			cur.Entries[pos].OutCnt++
		} else {
			idx[e.Src] = len(cur.Entries)
			cur.Entries = append(cur.Entries, Entry{Vertex: e.Src, OutCnt: 1})
		}
		count++
		// Line 11 of Algorithm 1: edge_num * S_G/|E| >= S_c, i.e. the chunk's
		// byte size reached S_c — or the partition is exhausted.
		if count >= edgesPerChunk || i == len(edges)-1 {
			cur.NumEdges = count
			set.Chunks = append(set.Chunks, cur)
			reset(i + 1)
		}
	}
	return set
}

// NumChunks returns the number of chunks in the set.
func (s *Set) NumChunks() int { return len(s.Chunks) }

// EdgesPerChunk returns the chunk capacity in edges implied by chunkBytes
// (at least one edge). Label and SplitStream both derive their windows from
// it, which keeps a re-split stream aligned with a labelling's chunk
// boundaries.
func EdgesPerChunk(chunkBytes int64) int {
	per := int(chunkBytes / graph.EdgeSize)
	if per < 1 {
		per = 1
	}
	return per
}

// SplitStream cuts an arbitrary edge stream into exactly numChunks segments
// whose concatenation is the input: segment i holds the i-th chunk-capacity
// window of the stream and the final segment takes whatever remains (so a
// stream longer than numChunks windows spills into the last segment, and a
// shorter one leaves trailing segments empty). Restoring a checkpoint uses
// it to lay a partition's saved edge stream back onto the partition's chunk
// keys.
func SplitStream(edges []graph.Edge, chunkBytes int64, numChunks int) [][]graph.Edge {
	if numChunks <= 0 {
		return nil
	}
	per := EdgesPerChunk(chunkBytes)
	segs := make([][]graph.Edge, numChunks)
	for i := 0; i < numChunks; i++ {
		lo := i * per
		if lo > len(edges) {
			lo = len(edges)
		}
		hi := lo + per
		if i == numChunks-1 || hi > len(edges) {
			hi = len(edges)
		}
		segs[i] = edges[lo:hi]
	}
	return segs
}

// MetadataBytes estimates the extra storage cost of the chunk tables — the
// overhead the paper reports as 5.5%–19.2% of the original graph.
func (s *Set) MetadataBytes() int64 {
	var n int64
	for _, t := range s.Chunks {
		n += int64(len(t.Entries)) * 8 // (vertex, count) pairs
	}
	return n
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int64) int64 { return a / gcd(a, b) * b }
