package memsim

import (
	"sync"
	"testing"
)

// TestCountersConcurrentUpdates runs four jobs on their own goroutines
// against one cache, handing it over under a mutex as the one-writer
// contract asks: every access from every goroutine must land in its job's
// counters and in the cache-wide totals.
func TestCountersConcurrentUpdates(t *testing.T) {
	c, err := NewCache(DefaultConfig(64 << 10))
	if err != nil {
		t.Fatal(err)
	}
	var ctrs [4]Counters
	var mu sync.Mutex
	var wg sync.WaitGroup
	const perJob = 2000
	for j := 0; j < 4; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			base := uint64(j) << 30
			for i := 0; i < perJob; i++ {
				mu.Lock()
				c.Touch(base+uint64(i)*LineSize, &ctrs[j])
				mu.Unlock()
			}
		}(j)
	}
	wg.Wait()
	var hits, misses uint64
	for j := range ctrs {
		if got := ctrs[j].Instructions; got != perJob {
			t.Fatalf("job %d instructions = %d, want %d", j, got, perJob)
		}
		hits += ctrs[j].Hits
		misses += ctrs[j].Misses
	}
	if hits != c.TotalHits() || misses != c.TotalMisses() {
		t.Fatalf("per-job sums (%d/%d) disagree with cache totals (%d/%d)",
			hits, misses, c.TotalHits(), c.TotalMisses())
	}
}

func TestDistinctRegionsInterfere(t *testing.T) {
	// Two working sets that each fit the cache alone, but not together,
	// interleaved: both should suffer — the cache-interference effect of
	// the paper's Figure 3(c).
	cfg := Config{SizeBytes: 16 << 10, Ways: 8}
	alone, _ := NewCache(cfg)
	var actr Counters
	size := uint64(12 << 10)
	for pass := 0; pass < 4; pass++ {
		for off := uint64(0); off < size; off += LineSize {
			alone.Touch(off, &actr)
		}
	}

	together, _ := NewCache(cfg)
	var t1, t2 Counters
	for pass := 0; pass < 4; pass++ {
		for off := uint64(0); off < size; off += LineSize {
			together.Touch(off, &t1)
			together.Touch(1<<30+off, &t2)
		}
	}
	if t1.MissRate() <= actr.MissRate() {
		t.Fatalf("interleaved miss rate %.3f not above solo %.3f", t1.MissRate(), actr.MissRate())
	}
}

func TestLPIZeroInstructions(t *testing.T) {
	var c Counters
	if c.LPI() != 0 || c.MissRate() != 0 {
		t.Fatal("zero-instruction counters should report 0")
	}
}
