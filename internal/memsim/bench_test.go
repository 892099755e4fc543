package memsim

import (
	"math/rand"
	"testing"
)

// BenchmarkScanChunk measures the stream phase: chunks of 4096 12-byte edge
// records scanned in storage order over a region four times the cache, so
// the scan mixes cold lines with resident ones. The lines/s metric counts
// 64B lines scanned per wall-clock second.
func BenchmarkScanChunk(b *testing.B) {
	c, err := NewCache(DefaultConfig(1 << 20))
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 4096
	const region = 4 << 20
	const chunks = region / (chunk * edgeSize)
	var tally Tally
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ScanChunk(0, (i%chunks)*chunk, chunk, edgeSize, &tally)
	}
	lines := float64(b.N) * chunk * edgeSize / LineSize
	b.ReportMetric(lines/b.Elapsed().Seconds(), "lines/s")
}

// BenchmarkGroupedState measures the state phase: one chunk's worth of
// hub-skewed vertex-state accesses (8192, over 16K vertices of 8 bytes),
// aggregated per line, grouped with GroupEntries and settled with
// TouchGrouped. The lines/s metric counts distinct state lines settled per
// wall-clock second.
func BenchmarkGroupedState(b *testing.B) {
	c, err := NewCache(DefaultConfig(1 << 20))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<14-1)
	addrs := make([]uint64, 8192)
	for i := range addrs {
		addrs[i] = 1<<30 + zipf.Uint64()*8
	}
	entries := dedupEntries(addrs)
	var sc BatchScratch
	var tally Tally
	if _, ok := c.GroupEntries(entries, &sc); !ok {
		b.Fatal("benchmark batch overflows a set")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _ := c.GroupEntries(entries, &sc)
		c.TouchGrouped(&g, uint64(len(addrs)), &tally)
	}
	b.ReportMetric(float64(b.N)*float64(len(entries))/b.Elapsed().Seconds(), "lines/s")
}
