package core

import (
	"sync"
	"testing"

	"graphm/internal/chunk"
	"graphm/internal/graph"
)

// TestSnapshotStoreConcurrency hammers the snapshot store with the
// concurrency shape the real system produces, for the -race CI job:
// writers (update / mutate) serialized by one mutex —
// System.mu plays that role in production — while readers (resolve,
// currentVersion, overrideCount) and the job-exit path (release,
// pruneBefore, which System.leave runs outside its lock) interleave freely.
func TestSnapshotStoreConcurrency(t *testing.T) {
	const (
		pid       = 0
		jobCount  = 4
		writerOps = 200
	)
	n := chunk.Label(pid, seqEdges(32), 8*graph.EdgeSize).NumChunks() // 4 chunks

	st := newSnapshotStore()
	var ctl sync.Mutex // stands in for System.mu: serializes structure writers

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: updates and mutations in one serialized stream, exactly as
	// evolve calls interleave.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < writerOps; i++ {
			ctl.Lock()
			if i%2 == 0 {
				st.update(pid, i%n, seqEdges(3+i%5), alloc64)
			} else {
				st.mutate(1+i%jobCount, pid, i%n, seqEdges(1+i%3), alloc64)
			}
			ctl.Unlock()
		}
	}()

	// Readers: resolve runs with only the store's own lock.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				born := st.currentVersion()
				if cp := st.resolve(1+(seed+i)%jobCount, born, pid, i%n); cp != nil && len(cp.edges) == 0 && cp.table == nil {
					t.Error("resolve returned a copy with no table")
					return
				}
				st.overrideCount()
				i++
			}
		}(r)
	}

	// Job-exit path: release + pruneBefore race the writers, as leave()
	// does outside System.mu.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			st.release(1 + i%jobCount)
			st.pruneBefore(st.currentVersion() - 5)
			i++
		}
	}()

	wg.Wait()

	// Post-quiescence invariants: the version counter saw every update (one
	// per two-op cycle), and pruning to the current version leaves exactly
	// one observable version per remaining chain.
	if got, want := st.currentVersion(), writerOps/2; got != want {
		t.Fatalf("version counter = %d, want %d", got, want)
	}
	st.pruneBefore(st.currentVersion())
	st.mu.RLock()
	for key, vs := range st.versions {
		if len(vs) != 1 {
			t.Fatalf("chain for key %d has %d versions after full prune, want 1", key, len(vs))
		}
	}
	st.mu.RUnlock()
}

// TestSnapshotPruneDropsUnobservableVersions pins the pruning contract the
// satellite asks for: versions no live job can observe are dropped, the
// newest observable one survives.
func TestSnapshotPruneDropsUnobservableVersions(t *testing.T) {
	st := newSnapshotStore()
	var vs []int
	for i := 0; i < 4; i++ {
		vs = append(vs, st.update(0, 0, seqEdges(i+1), alloc64))
	}
	key := chunkKey(0, 0)

	chainLen := func() int {
		st.mu.RLock()
		defer st.mu.RUnlock()
		return len(st.versions[key])
	}

	// minBorn older than every version: nothing can be dropped.
	st.pruneBefore(vs[0] - 1)
	if chainLen() != 4 {
		t.Fatalf("chain = %d after no-op prune, want 4", chainLen())
	}
	// minBorn at v3: v1 and v2 are unobservable (every live job resolves to
	// v3 or newer), so exactly [v3, v4] survive.
	st.pruneBefore(vs[2])
	if chainLen() != 2 {
		t.Fatalf("chain = %d after prune at v3, want 2", chainLen())
	}
	if cp := st.resolve(-1, vs[2], 0, 0); cp == nil || len(cp.edges) != 3 {
		t.Fatal("newest observable version (v3) lost by pruning")
	}
	// minBorn beyond the newest: only the newest survives.
	st.pruneBefore(vs[3] + 10)
	if chainLen() != 1 {
		t.Fatalf("chain = %d after full prune, want 1", chainLen())
	}
	if cp := st.resolve(-1, vs[3], 0, 0); cp == nil || len(cp.edges) != 4 {
		t.Fatal("newest version lost by full pruning")
	}
}

// seqEdges returns n distinct edges i -> i+1.
func seqEdges(n int) []graph.Edge {
	out := make([]graph.Edge, n)
	for i := range out {
		out[i] = graph.Edge{Src: uint32(i), Dst: uint32(i + 1), Weight: 1}
	}
	return out
}
