package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"graphm/internal/algorithms"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/memsim"
	"graphm/internal/storage"
)

// TestTwoPhaseOwnerElectionOnAttendanceChange parks two ProcessAll
// attendees once they declared a window, while a third attendee of the
// same partition has not picked it up yet, so no owner can be elected. Then the third one either withdraws (its Sharing call unhooks
// it from the partition's attendance) or the system fails. Either change
// must reach the parked attendees: after a detach one of them becomes the
// owner and the run completes; after a failure both return and Wait
// reports the error.
func TestTwoPhaseOwnerElectionOnAttendanceChange(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("twophase", 600, 6000, 7))
	if err != nil {
		t.Fatal(err)
	}
	for _, fail := range []bool{false, true} {
		t.Run(fmt.Sprintf("fail=%v", fail), func(t *testing.T) {
			disk := storage.NewDisk()
			cfg := DefaultConfig(16 << 10)
			cache, err := memsim.NewCache(memsim.DefaultConfig(cfg.LLCBytes))
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSystem(stressLayout(g, 3, disk), storage.NewMemory(disk, 64<<20), cache, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var driven []*Session
			for id := 1; id <= 2; id++ {
				pr := algorithms.NewPageRank(0.85, 3)
				pr.Tolerance = -1
				sess, err := s.OpenSession(engine.NewJob(id, pr, int64(id)))
				if err != nil {
					t.Fatal(err)
				}
				driven = append(driven, sess)
			}
			late, err := s.OpenSession(engine.NewJob(3, algorithms.NewWCC(3), 3))
			if err != nil {
				t.Fatal(err)
			}
			for _, sess := range driven {
				go s.drive(sess)
			}
			if !late.BeginIteration() {
				t.Fatal("the late job never joined the round")
			}
			// Wait until both ProcessAll attendees have reached the open
			// partition and parked: two of its three attendees declared.
			deadline := time.Now().Add(10 * time.Second)
			for {
				s.mu.Lock()
				parked := s.cur != nil && s.cur.pending[3] && s.cur.declared == 2 && !s.cur.owned
				s.mu.Unlock()
				if parked {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the ProcessAll attendees never parked beside the pending job")
				}
				runtime.Gosched()
			}
			errInjected := errors.New("injected failure")
			if fail {
				s.fail(errInjected)
			} else {
				// Raise the flag without Detach's wake-everyone broadcast,
				// so the only wake left for the parked attendees is the one
				// detachLocked owes them when attendance shrinks.
				s.mu.Lock()
				late.js.detachWanted = true
				s.mu.Unlock()
				if sp := late.Sharing(); sp != nil {
					t.Fatal("Sharing handed a partition to a detaching job")
				}
				late.EndIteration()
				if late.BeginIteration() {
					t.Fatal("a detached job began another iteration")
				}
			}
			late.Close()
			done := make(chan error, 1)
			go func() { done <- s.Wait() }()
			select {
			case err := <-done:
				switch {
				case fail && !errors.Is(err, errInjected):
					t.Fatalf("Wait = %v, want the injected failure", err)
				case !fail && err != nil:
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				buf := make([]byte, 1<<20)
				t.Fatalf("ProcessAll attendees still parked after 30s\n%s", buf[:runtime.Stack(buf, true)])
			}
			if !fail && !late.Detached() {
				t.Fatal("the detach was never honored")
			}
		})
	}
}

// TestTwoPhaseWindowsPriceIdentically holds the two-phase window to what it
// is for: a bound on what a job holds between collecting a chunk and the
// owner pricing it, never a change to the pricing order or the results. An
// 8-job batch must report the same simulated numbers — cache-wide hits and
// misses, every job's LLC counters and Metrics — and bit-identical program
// outputs whether each partition streams in one window, in windows of three
// chunks (so the last window of a partition is short), or one chunk at a
// time. It runs under two Formula (1) labellings, sized for 4 and for 16
// cores; the finer one must label more chunks, and the two must agree on
// every job's work counters and outputs.
func TestTwoPhaseWindowsPriceIdentically(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("windows", 1200, 12000, 29))
	if err != nil {
		t.Fatal(err)
	}
	type jobSim struct {
		Hits, Misses uint64
		Met          engine.Metrics
		Out          any // the program's result vector
	}
	type outcome struct {
		Chunks       int
		Hits, Misses uint64
		Jobs         []jobSim
	}
	run := func(window, cores int) outcome {
		disk := storage.NewDisk()
		cfg := DefaultConfig(16 << 10)
		cfg.Cores = cores
		cache, err := memsim.NewCache(memsim.DefaultConfig(cfg.LLCBytes))
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSystem(stressLayout(g, 3, disk), storage.NewMemory(disk, 64<<20), cache, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.window = window
		if window == 3 && cores == 4 {
			uneven := false
			for pid := range s.parts {
				uneven = uneven || s.ChunkCount(pid) > 3 && s.ChunkCount(pid)%3 != 0
			}
			if !uneven {
				t.Fatal("no partition spans several windows of three with a short last one")
			}
		}
		var jobs []*engine.Job
		for id := 1; id <= 8; id++ {
			var p engine.Program
			switch id % 4 {
			case 0:
				pr := algorithms.NewPageRank(0.85, 3)
				pr.Tolerance = -1
				p = pr
			case 1:
				p = algorithms.NewWCC(100)
			case 2:
				p = algorithms.NewBFS(graph.VertexID(id))
			default:
				p = algorithms.NewSSSP(graph.VertexID(id))
			}
			jobs = append(jobs, engine.NewJob(id, p, int64(id)))
		}
		if err := s.Run(jobs); err != nil {
			t.Fatal(err)
		}
		o := outcome{Chunks: s.StatsSnapshot().NumChunks, Hits: cache.TotalHits(), Misses: cache.TotalMisses()}
		for _, j := range jobs {
			var out any
			switch p := j.Prog.(type) {
			case *algorithms.PageRank:
				out = p.Ranks()
			case *algorithms.WCC:
				out = p.Labels()
			case *algorithms.BFS:
				out = p.Dist()
			case *algorithms.SSSP:
				out = p.Dist()
			}
			o.Jobs = append(o.Jobs, jobSim{j.Ctr.Hits, j.Ctr.Misses, j.Met, out})
		}
		return o
	}
	var coarse outcome
	for _, cores := range []int{4, 16} {
		want := run(1<<30, cores)
		for _, window := range []int{3, 1} {
			got := run(window, cores)
			if got.Hits != want.Hits || got.Misses != want.Misses {
				t.Fatalf("cores %d window %d: cache totals %d hits/%d misses, one window per partition %d/%d",
					cores, window, got.Hits, got.Misses, want.Hits, want.Misses)
			}
			for k := range want.Jobs {
				// DeepEqual compares float64 elements with ==: no NaN occurs,
				// so equal vectors are bit-identical up to the sign of zero.
				if !reflect.DeepEqual(got.Jobs[k], want.Jobs[k]) {
					t.Fatalf("cores %d window %d: job %d simulated numbers or outputs differ from one window per partition",
						cores, window, k+1)
				}
			}
		}
		if cores == 4 {
			coarse = want
			continue
		}
		if want.Chunks <= coarse.Chunks {
			t.Fatalf("16-core labelling has %d chunks, 4-core %d: the granularity comparison is vacuous", want.Chunks, coarse.Chunks)
		}
		for k := range want.Jobs {
			got, ref := want.Jobs[k], coarse.Jobs[k]
			if got.Met.Work() != ref.Met.Work() || !reflect.DeepEqual(got.Out, ref.Out) {
				t.Fatalf("job %d: work or outputs depend on chunk granularity", k+1)
			}
		}
	}
}

// TestJoinerQueuesWhileLastPartitionOpen pins the other side of mid-round
// admission: once the round's last partition is open, a JoinMidRound job
// queues for the next round instead of attaching. Attaching there would
// only append the joiner's whole iteration to the round's tail, and when
// the joiner is an attendee of that partition ending its iteration, whether
// it attaches would depend on which co-attendee the scheduler runs first —
// under two-phase streaming, the window owner. A one-partition layout
// makes the held partition the round's last.
func TestJoinerQueuesWhileLastPartitionOpen(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("lastpart", 600, 5000, 17))
	if err != nil {
		t.Fatal(err)
	}
	disk := storage.NewDisk()
	cfg := DefaultConfig(64 << 10)
	cache, err := memsim.NewCache(memsim.DefaultConfig(cfg.LLCBytes))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(stressLayout(g, 1, disk), storage.NewMemory(disk, 64<<20), cache, cfg)
	if err != nil {
		t.Fatal(err)
	}
	long := algorithms.NewPageRank(0.85, 3)
	long.Tolerance = -1
	sessLong, err := s.OpenSession(engine.NewJob(1, long, 21))
	if err != nil {
		t.Fatal(err)
	}
	if !sessLong.BeginIteration() {
		t.Fatal("long job refused its first iteration")
	}
	held := sessLong.Sharing()
	if held == nil {
		t.Fatal("long job's first iteration has no partitions")
	}
	// Stream the partition but delay its Barrier, so it stays open while
	// the joiner arrives — as the scenario runner holds a partition open
	// between ProcessAll and Barrier.
	held.ProcessAll()

	bfs := algorithms.NewBFS(3)
	sessLate, err := s.OpenSessionWith(engine.NewJob(2, bfs, 22), SessionOptions{JoinMidRound: true})
	if err != nil {
		t.Fatal(err)
	}
	began := make(chan bool, 1)
	go func() { began <- sessLate.BeginIteration() }()
	// Wait for the joiner to settle: queued at the round barrier, or (the
	// defect) attached to the round in flight.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		queued, joins := s.readyCount == 1, s.stats.MidRoundJoins
		s.mu.Unlock()
		if joins != 0 {
			t.Fatal("the joiner attached to a round whose last partition is open")
		}
		if queued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the joiner never reached the round barrier")
		}
		runtime.Gosched()
	}

	held.Barrier()
	if sessLong.Sharing() != nil {
		t.Fatal("the one-partition round had a second partition")
	}
	sessLong.EndIteration()
	go s.drive(sessLong)
	if !<-began {
		t.Fatal("the queued joiner never began its iteration")
	}
	for sp := sessLate.Sharing(); sp != nil; sp = sessLate.Sharing() {
		sp.ProcessAll()
		sp.Barrier()
	}
	sessLate.EndIteration()
	s.drive(sessLate)
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	want := algorithms.ReferenceBFS(g, 3)
	for v, d := range bfs.Dist() {
		if d != want[v] {
			t.Fatalf("queued BFS dist[%d] = %d, want %d", v, d, want[v])
		}
	}
	if n := s.StatsSnapshot().MidRoundJoins; n != 0 {
		t.Fatalf("%d mid-round joins, want 0", n)
	}
}
