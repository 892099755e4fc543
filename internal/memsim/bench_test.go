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
		c.TouchGrouped(&g, &tally)
	}
	b.ReportMetric(float64(b.N)*float64(len(entries))/b.Elapsed().Seconds(), "lines/s")
}

// missHeavyJobs is the number of concurrent jobs the miss-heavy benches
// model; they run on the dataset presets' LLC, 64 KB and 16-way (64 sets).
const missHeavyJobs = 8

// BenchmarkScanChunkMissHeavy measures the stream phase in the regime the
// daemon runs: the presets' 64 KB LLC, and 8 jobs scanning each shared chunk
// in turn before the stream moves on. A 4096-record chunk is 768 lines, 12
// per set, so the first job misses every line of a new chunk (1 line probe
// in 8 misses). The chunk fits the cache's 1024 lines, so the other 7 scans
// repeat the first one's range and each settles in O(1), as the lockstep's
// followers do. The lines/s metric counts 64B line probes per wall-clock
// second, the 7 settled scans' lines included.
func BenchmarkScanChunkMissHeavy(b *testing.B) {
	c, err := NewCache(DefaultConfig(64 << 10))
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 4096
	const chunks = 16
	var tally Tally
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ScanChunk(0, (i/missHeavyJobs%chunks)*chunk, chunk, edgeSize, &tally)
	}
	lines := float64(b.N) * chunk * edgeSize / LineSize
	b.ReportMetric(lines/b.Elapsed().Seconds(), "lines/s")
}

// BenchmarkGroupedStateMissHeavy measures the state phase in the same
// regime: 8 jobs, each with its own hub-skewed vertex state (2048 accesses
// per chunk over 8K vertices of 8 bytes), settle their chunks' state phases
// in turn on the presets' 64 KB LLC, so the jobs' hub lines evict one
// another and about 12% of state accesses miss. The lines/s metric counts
// distinct state lines settled per wall-clock second; miss/access is the
// state phase's miss rate.
func BenchmarkGroupedStateMissHeavy(b *testing.B) {
	c, err := NewCache(DefaultConfig(64 << 10))
	if err != nil {
		b.Fatal(err)
	}
	const batches = 4
	var phases [missHeavyJobs * batches][]BatchEntry
	rng := rand.New(rand.NewSource(1))
	lines := 0
	for j := 0; j < missHeavyJobs; j++ {
		zipf := rand.NewZipf(rng, 1.2, 1, 1<<13-1)
		for k := 0; k < batches; k++ {
			addrs := make([]uint64, 2048)
			for i := range addrs {
				addrs[i] = uint64(j+1)<<24 + zipf.Uint64()*8
			}
			phases[k*missHeavyJobs+j] = dedupEntries(addrs)
			lines += len(phases[k*missHeavyJobs+j])
		}
	}
	var sc BatchScratch
	for _, p := range phases {
		if _, ok := c.GroupEntries(p, &sc); !ok {
			b.Fatal("benchmark batch overflows a set")
		}
	}
	var tally Tally
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _ := c.GroupEntries(phases[i%len(phases)], &sc)
		c.TouchGrouped(&g, &tally)
	}
	b.ReportMetric(float64(b.N)*float64(lines)/float64(len(phases))/b.Elapsed().Seconds(), "lines/s")
	b.ReportMetric(float64(tally.Misses)/float64(tally.Accesses()), "miss/access")
}
