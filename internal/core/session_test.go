package core_test

import (
	"math"
	"sync"
	"testing"

	"graphm/internal/algorithms"
	"graphm/internal/core"
	"graphm/internal/engine"
)

// TestSessionDrivenEngine drives GraphM through the exported Session API —
// the integration path of Figure 6(b), where the engine owns the streaming
// loop — and checks the results match the built-in driver's.
func TestSessionDrivenEngine(t *testing.T) {
	r := newRig(t, 500, 4000, 4, core.DefaultConfig(64<<10))

	pr := algorithms.NewPageRank(0.85, 6)
	pr.Tolerance = 1e-12
	bfs := algorithms.NewBFS(1)
	j1 := engine.NewJob(1, pr, 1)
	j2 := engine.NewJob(2, bfs, 2)

	drive := func(j *engine.Job) {
		sess, err := r.sys.OpenSession(j)
		if err != nil {
			t.Error(err)
			return
		}
		for sess.BeginIteration() {
			for {
				sp := sess.Sharing()
				if sp == nil {
					break
				}
				if sp.ID() < 0 || sp.ID() >= r.sys.NumPartitions() {
					t.Errorf("partition ID %d out of range", sp.ID())
				}
				if sp.NumChunks() != r.sys.ChunkCount(sp.ID()) {
					t.Errorf("NumChunks %d != ChunkCount %d", sp.NumChunks(), r.sys.ChunkCount(sp.ID()))
				}
				sp.ProcessAll()
				sp.Barrier()
			}
			// Profiled costs become available after the first partitions.
			if _, te, ok := r.sys.ProfiledCosts(j.ID); ok && te < 0 {
				t.Errorf("profiled T(E) negative: %v", te)
			}
			sess.EndIteration()
		}
		sess.Close()
		if _, _, ok := r.sys.ProfiledCosts(j.ID); ok {
			t.Error("ProfiledCosts should report unknown after the job left")
		}
	}

	var wg sync.WaitGroup
	for _, j := range []*engine.Job{j1, j2} {
		wg.Add(1)
		go func(j *engine.Job) {
			defer wg.Done()
			drive(j)
		}(j)
	}
	wg.Wait()
	if err := r.sys.Err(); err != nil {
		t.Fatal(err)
	}

	wantPR := algorithms.ReferencePageRank(r.g, 0.85, 6)
	for v := range wantPR {
		if math.Abs(pr.Ranks()[v]-wantPR[v]) > 1e-9 {
			t.Fatalf("rank[%d] = %g, want %g", v, pr.Ranks()[v], wantPR[v])
		}
	}
	wantBFS := algorithms.ReferenceBFS(r.g, 1)
	for v := range wantBFS {
		if bfs.Dist()[v] != wantBFS[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, bfs.Dist()[v], wantBFS[v])
		}
	}
}

// TestSessionMixedWithSubmit runs one session-driven job concurrently with
// Submit-driven jobs; the controller must coordinate both identically.
func TestSessionMixedWithSubmit(t *testing.T) {
	r := newRig(t, 400, 3000, 4, core.DefaultConfig(64<<10))
	pr := algorithms.NewPageRank(0.7, 5)
	pr.Tolerance = 1e-12
	r.sys.Submit(engine.NewJob(1, pr, 1))

	bfs := algorithms.NewBFS(0)
	j := engine.NewJob(2, bfs, 2)
	sess, err := r.sys.OpenSession(j)
	if err != nil {
		t.Fatal(err)
	}
	for sess.BeginIteration() {
		for {
			sp := sess.Sharing()
			if sp == nil {
				break
			}
			sp.ProcessAll()
			sp.Barrier()
		}
		sess.EndIteration()
	}
	sess.Close()
	if err := r.sys.Wait(); err != nil {
		t.Fatal(err)
	}
	wantBFS := algorithms.ReferenceBFS(r.g, 0)
	for v := range wantBFS {
		if bfs.Dist()[v] != wantBFS[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, bfs.Dist()[v], wantBFS[v])
		}
	}
	wantPR := algorithms.ReferencePageRank(r.g, 0.7, 5)
	for v := range wantPR {
		if math.Abs(pr.Ranks()[v]-wantPR[v]) > 1e-9 {
			t.Fatalf("rank[%d] diverged", v)
		}
	}
}

// TestSessionDuplicateIDRejected verifies synchronous duplicate detection.
func TestSessionDuplicateIDRejected(t *testing.T) {
	r := newRig(t, 100, 500, 2, core.DefaultConfig(64<<10))
	a := engine.NewJob(5, algorithms.NewBFS(0), 1)
	b := engine.NewJob(5, algorithms.NewBFS(1), 2)
	sess, err := r.sys.OpenSession(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.sys.OpenSession(b); err == nil {
		t.Fatal("expected duplicate-ID error")
	}
	sess.Close()
	// After closing, the ID is reusable.
	sess2, err := r.sys.OpenSession(b)
	if err != nil {
		t.Fatalf("ID not reusable after Close: %v", err)
	}
	sess2.Close()
}

// TestSessionCloseIdempotent ensures double Close is safe.
func TestSessionCloseIdempotent(t *testing.T) {
	r := newRig(t, 100, 500, 2, core.DefaultConfig(64<<10))
	sess, err := r.sys.OpenSession(engine.NewJob(1, algorithms.NewBFS(0), 1))
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	sess.Close()
	if err := r.sys.Wait(); err != nil {
		t.Fatal(err)
	}
}
