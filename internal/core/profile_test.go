package core_test

import (
	"sync"
	"testing"

	"graphm/internal/algorithms"
	"graphm/internal/core"
	"graphm/internal/engine"
)

// TestProfilingDeterministic pins that the profiling phase reads simulated
// time, not wall-clock: two identical serial runs — two jobs, one core, so
// every chunk is streamed by its leader and then its follower, in a fixed
// order — must profile the same shared T(E) and the same per-job T(F_j)
// and T(E), bit for bit. The profile picks each chunk's leader (Formula 4),
// so a wall-clock reading here would make the schedule differ run to run.
func TestProfilingDeterministic(t *testing.T) {
	type profile struct {
		tF, tE   float64
		profiled bool
	}
	run := func() (float64, map[int]profile) {
		cfg := core.DefaultConfig(64 << 10)
		cfg.Cores = 1
		r := newRig(t, 400, 3000, 4, cfg)
		pr := algorithms.NewPageRank(0.85, 6)
		pr.Tolerance = 1e-12
		jobs := []*engine.Job{engine.NewJob(1, pr, 1), engine.NewJob(2, algorithms.NewBFS(0), 2)}
		profiles := map[int]profile{}
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, j := range jobs {
			sess, err := r.sys.OpenSession(j)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for sess.BeginIteration() {
					for sp := sess.Sharing(); sp != nil; sp = sess.Sharing() {
						sp.ProcessAll()
						sp.Barrier()
					}
					sess.EndIteration()
				}
				tF, tE, ok := sess.Profile()
				mu.Lock()
				profiles[j.ID] = profile{tF, tE, ok}
				mu.Unlock()
				sess.Close()
			}()
		}
		wg.Wait()
		if err := r.sys.Wait(); err != nil {
			t.Fatal(err)
		}
		return r.sys.SharedTE(), profiles
	}
	te1, p1 := run()
	te2, p2 := run()
	if te1 <= 0 {
		t.Fatalf("shared T(E) = %v: the profiling phase never finished", te1)
	}
	if te1 != te2 {
		t.Fatalf("shared T(E) differs between identical runs: %v vs %v", te1, te2)
	}
	for id, a := range p1 {
		if !a.profiled {
			t.Fatalf("job %d was never profiled", id)
		}
		if b := p2[id]; a != b {
			t.Fatalf("job %d profile differs between identical runs: %+v vs %+v", id, a, b)
		}
	}
}
