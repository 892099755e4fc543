package storage

import (
	"testing"

	"graphm/internal/graph"
)

// TestMemoryOvercommitAllPinned pins every resident buffer and forces a load
// past the budget: the pool must admit the load anyway (an OS cannot refuse
// memory to running processes), count one overcommit, and keep Used exact.
func TestMemoryOvercommitAllPinned(t *testing.T) {
	d := NewDisk()
	d.Write("a", make([]byte, 400))
	d.Write("b", make([]byte, 400))
	d.Write("c", make([]byte, 300))
	m := NewMemory(d, 1000)

	bufA, _, err := m.Load("a", "a")
	if err != nil {
		t.Fatal(err)
	}
	bufB, _, err := m.Load("b", "b")
	if err != nil {
		t.Fatal(err)
	}
	// Both buffers pinned; loading c (300 B) exceeds the 1000 B budget with
	// no evictable victim.
	bufC, _, err := m.Load("c", "c")
	if err != nil {
		t.Fatal(err)
	}
	if m.Overcommits() != 1 {
		t.Fatalf("overcommits = %d, want 1", m.Overcommits())
	}
	if m.Evictions() != 0 {
		t.Fatalf("evictions = %d, want 0 (every victim was pinned)", m.Evictions())
	}
	if m.Used() != 1100 {
		t.Fatalf("used = %d, want 1100 (admitted past budget)", m.Used())
	}
	if m.Peak() != 1100 {
		t.Fatalf("peak = %d, want 1100", m.Peak())
	}

	// Releasing the pins makes the overflow evictable again: the next load
	// evicts LRU-first instead of overcommitting.
	bufA.Release()
	bufB.Release()
	bufC.Release()
	d.Write("d", make([]byte, 600))
	if _, _, err := m.Load("d", "d"); err != nil {
		t.Fatal(err)
	}
	if m.Overcommits() != 1 {
		t.Fatalf("overcommits = %d after release, want still 1", m.Overcommits())
	}
	if m.Evictions() == 0 {
		t.Fatal("expected evictions once pins were released")
	}
	if m.Used() > 1000 {
		t.Fatalf("used = %d, want within budget after evictions", m.Used())
	}
}

// TestDiskWriteInvalidationAccounting regression-tests the page-cache
// accounting bug where rewriting a cached blob with a different size
// subtracted the NEW length from cacheUsed instead of the cached one.
func TestDiskWriteInvalidationAccounting(t *testing.T) {
	d := NewDisk()
	d.SetPageCache(10000)
	d.Write("x", make([]byte, 1000))
	if _, _, err := d.ReadCached("x"); err != nil { // admits 1000 B to the cache
		t.Fatal(err)
	}
	d.Write("x", make([]byte, 10)) // old code subtracted 10, leaking 990
	if _, _, err := d.ReadCached("x"); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	used := d.cacheUsed
	d.mu.Unlock()
	if used != 10 {
		t.Fatalf("cacheUsed = %d, want 10", used)
	}
}

// TestMemoryLoadMetersRawBlob streams an encoded partition blob through
// the buffer pool: the pool hands back the bytes that were written, which
// decode to the original edges, and the disk meters the raw blob once per
// uncached read.
func TestMemoryLoadMetersRawBlob(t *testing.T) {
	edges := make([]graph.Edge, 2000)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i / 4), Dst: graph.VertexID(i % 500)}
	}
	raw := graph.EncodeEdges(edges)

	d := NewDisk()
	d.Write("part", raw)
	m := NewMemory(d, 1<<20)
	d.ResetCounters()
	buf, _, err := m.Load("part", "part")
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Release()
	got, err := graph.DecodeEdges(buf.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !edgesEqual(got, edges) {
		t.Fatal("decoded edges differ from originals")
	}
	if d.ReadBytes() != uint64(len(raw)) {
		t.Fatalf("metered %d bytes, want raw size %d", d.ReadBytes(), len(raw))
	}
	d.ResetCounters()
	if _, _, err := d.ReadCached("part"); err != nil {
		t.Fatal(err)
	}
	if d.ReadBytes() != uint64(len(raw)) {
		t.Fatalf("uncached read metered %d bytes, want %d", d.ReadBytes(), len(raw))
	}
}
