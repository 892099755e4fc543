package memsim_test

import (
	"testing"

	"graphm/internal/chunk"
	"graphm/internal/memsim"
)

// This file verifies, at the cache-model level, why Formula (1) of the
// paper sizes chunks by the number of jobs sharing a partition: a chunk
// sized for the jobs actually sharing it survives in the LLC across the
// FineSync leader/follower lockstep, while a chunk sized for a lower
// concurrency is evicted by the extra jobs' vertex state before the late
// followers re-stream it. Symmetrically, when concurrency drops back to the
// sized-for level, the follower miss rate recovers.

const (
	llcBytes   = 64 << 10
	reserved   = llcBytes / 8
	partBytes  = 256 << 10 // one partition's edge stream, 4x the LLC
	stateBytes = 4 << 10   // per-job vertex data footprint (|V| * U_v)
)

// sizeFor is Formula (1) for n concurrent jobs over this file's geometry.
func sizeFor(t *testing.T, n int) int64 {
	t.Helper()
	sc, err := chunk.ChunkSize(chunk.SizeParams{
		NumCores:  n,
		LLCBytes:  llcBytes,
		GraphSize: partBytes,
		NumV:      stateBytes / 8,
		VertexPay: 8,
		Reserved:  reserved,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// streamPass replays one partition's chunk-synchronized stream for nJobs
// under the FineSync lockstep — leader first, then each follower — touching
// two job-state lines per graph line, the access shape of
// engine.Job.ApplyChunk. It returns the followers' aggregate miss rate (the
// leaders' misses are compulsory whatever the chunk size; sharing pays off,
// or fails to, in the follower passes).
func streamPass(t *testing.T, chunkBytes int64, nJobs int) float64 {
	t.Helper()
	cache, err := memsim.NewCache(memsim.DefaultConfig(llcBytes))
	if err != nil {
		t.Fatal(err)
	}
	ctrs := make([]memsim.Counters, nJobs)
	const graphBase = 0
	stateBase := func(j int) uint64 { return uint64(1<<32 + j*(1<<24)) }
	lcg := uint64(12345)
	nextState := func() uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return (lcg >> 33) % uint64(stateBytes/memsim.LineSize)
	}
	var followers memsim.Counters
	for off := int64(0); off < partBytes; off += chunkBytes {
		end := off + chunkBytes
		if end > partBytes {
			end = partBytes
		}
		for j := 0; j < nJobs; j++ {
			ctr := &ctrs[j]
			if j > 0 {
				ctr = &followers
			}
			for line := off / memsim.LineSize; line < (end+memsim.LineSize-1)/memsim.LineSize; line++ {
				cache.Touch(graphBase+uint64(line)*memsim.LineSize, ctr)
				cache.Touch(stateBase(j)+nextState()*memsim.LineSize, ctr)
				cache.Touch(stateBase(j)+nextState()*memsim.LineSize, ctr)
			}
		}
	}
	return followers.MissRate()
}

func TestChunkSizingGovernsFollowerMissRate(t *testing.T) {
	staleSize := sizeFor(t, 2)  // sized for 2 jobs sharing the partition
	rightSize := sizeFor(t, 12) // sized for the 12 jobs actually attending
	if staleSize <= rightSize*2 {
		t.Fatalf("geometry broken: stale %d not meaningfully larger than right-sized %d", staleSize, rightSize)
	}

	staleAt12 := streamPass(t, staleSize, 12)
	rightAt12 := streamPass(t, rightSize, 12)
	staleAt2 := streamPass(t, staleSize, 2)

	// Rising concurrency with chunks sized for too few jobs thrashes;
	// sizing for the true N restores follower reuse.
	if rightAt12 >= staleAt12/2 {
		t.Fatalf("right-sizing did not help at 12 jobs: stale miss rate %.4f, right-sized %.4f",
			staleAt12, rightAt12)
	}
	// When concurrency drops back to the N the stale size assumed, the
	// miss rate improves on its own.
	if staleAt2 >= staleAt12/2 {
		t.Fatalf("miss rate did not improve when concurrency dropped: 12 jobs %.4f, 2 jobs %.4f",
			staleAt12, staleAt2)
	}
	// And the right-sized configuration is roughly as healthy as the
	// correctly-sized low-concurrency one.
	if rightAt12 > 3*staleAt2 {
		t.Fatalf("right-sized 12-job miss rate %.4f far above the healthy baseline %.4f", rightAt12, staleAt2)
	}
}
