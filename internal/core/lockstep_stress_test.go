package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"graphm/internal/algorithms"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/memsim"
	"graphm/internal/storage"
)

// stressLayout splits g into parts source-range partitions with disk blobs
// of the partitions' byte sizes.
func stressLayout(g *graph.Graph, parts int, disk *storage.Disk) Layout {
	edges := append([]graph.Edge(nil), g.Edges...)
	sort.SliceStable(edges, func(a, b int) bool { return edges[a].Src < edges[b].Src })
	var out []*Partition
	span := (g.NumV + parts - 1) / parts
	for i := 0; i < parts; i++ {
		lo, hi := i*span, min((i+1)*span, g.NumV)
		a := sort.Search(len(edges), func(k int) bool { return int(edges[k].Src) >= lo })
		b := sort.Search(len(edges), func(k int) bool { return int(edges[k].Src) >= hi })
		name := fmt.Sprintf("stress-p%d", i)
		disk.Write(name, make([]byte, (b-a)*graph.EdgeSize))
		out = append(out, &Partition{ID: i, SrcLo: lo, SrcHi: hi, DiskName: name, Edges: edges[a:b:b]})
	}
	return NewLayout(g, out)
}

// TestLockstepLivenessStress guards the chunk lockstep's wake rule
// (chunkDoneLocked broadcasts only when a waiter's predicate can have
// changed and someone waits on it) against lost wakeups: ten self-driven
// attendees plus two ProcessAll ones stream multi-chunk partitions in
// lockstep while one job detaches in the middle of a partition, and — in
// the failure variant — another fails the system in the middle of a
// partition, with attendees parked on the chunk barrier and ProcessAll work
// in flight. At workers=2 the ProcessAll jobs run on the executor's pool;
// at workers=0 they stream two-phase in windows of two chunks, so a
// self-driven job is a partition's leader while the window owner collects
// the ProcessAll jobs' chunks, and its pricer prices beside self-driven
// attendees.
// Every driver must return within the bound at GOMAXPROCS 1, 2 and 4; run
// it under -race. The Share-only variant (FineSync off) has no lockstep, so
// there the pool jobs' ProcessAll depends on the finished wake alone.
func TestLockstepLivenessStress(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("lockstep", 1200, 12000, 31))
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		for _, workers := range []int{0, 2} {
			for _, fineSync := range []bool{true, false} {
				for _, inject := range []bool{false, true} {
					// A stalled run leaves its drivers parked; stop rather
					// than pile more stalled runs on top of them.
					name := fmt.Sprintf("gomaxprocs=%d/finesync=%v/fail=%v", procs, fineSync, inject)
					if workers == 0 {
						name = "workers=0/" + name
					}
					if !t.Run(name, func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						runLockstepStress(t, g, workers, fineSync, inject)
					}) {
						return
					}
				}
			}
		}
	}
}

func runLockstepStress(t *testing.T, g *graph.Graph, workers int, fineSync, inject bool) {
	const (
		selfDriven = 10
		poolDriven = 2
		detachID   = 4
		failID     = 8
	)
	errInjected := errors.New("injected failure")
	disk := storage.NewDisk()
	cfg := DefaultConfig(16 << 10)
	cfg.Workers = workers
	cfg.FineSync = fineSync
	cache, err := memsim.NewCache(memsim.DefaultConfig(cfg.LLCBytes))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(stressLayout(g, 4, disk), storage.NewMemory(disk, 64<<20), cache, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < len(s.parts); pid++ {
		if n := s.ChunkCount(pid); n < 3 {
			t.Fatalf("partition %d has %d chunks — the stress needs multi-chunk lockstep", pid, n)
		}
	}
	// Two-phase attendees park once per window of two chunks,
	// so every partition streams in several windows.
	s.window = 2

	type driven struct {
		sess *Session
		prog engine.Program
	}
	var jobs []driven
	for id := 1; id <= selfDriven+poolDriven; id++ {
		var p engine.Program
		switch id % 4 {
		case 0:
			pr := algorithms.NewPageRank(0.85, 4)
			pr.Tolerance = -1
			p = pr
		case 1:
			p = algorithms.NewWCC(100)
		case 2:
			p = algorithms.NewBFS(graph.VertexID(id))
		default:
			p = algorithms.NewSSSP(graph.VertexID(id))
		}
		sess, err := s.OpenSession(engine.NewJob(id, p, int64(id)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, driven{sess, p})
	}

	var wg sync.WaitGroup
	for i, d := range jobs {
		id, pooled := i+1, i >= selfDriven
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer d.sess.Close()
			for d.sess.BeginIteration() {
				nth := 0
				for sp := d.sess.Sharing(); sp != nil; sp = d.sess.Sharing() {
					nth++
					if pooled {
						sp.ProcessAll()
						sp.Barrier()
						continue
					}
					for k := 0; sp.Next(); k++ {
						sp.Process()
						switch {
						case id == detachID && d.sess.iter == 0 && nth == 2 && k == 1:
							d.sess.Detach()
						case inject && id == failID && d.sess.iter == 1 && nth == 2 && k == 1:
							s.fail(errInjected)
						}
					}
					sp.Barrier()
				}
				d.sess.EndIteration()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("lockstep stalled: drivers still parked after 30s\n%s", buf[:runtime.Stack(buf, true)])
	}

	err = s.Wait()
	if inject {
		if !errors.Is(err, errInjected) {
			t.Fatalf("Wait = %v, want the injected failure", err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[detachID-1].sess.Detached() {
		t.Fatal("the mid-partition detach was never honored")
	}
	if st := s.StatsSnapshot(); st.SharedLoads == 0 {
		t.Fatal("no shared partition loads — the attendees never streamed in lockstep")
	}
	for i, d := range jobs {
		if i+1 == detachID {
			continue
		}
		switch p := d.prog.(type) {
		case *algorithms.PageRank:
			want := algorithms.ReferencePageRank(g, p.Damping, 4)
			for v := range want {
				if diff := p.Ranks()[v] - want[v]; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("job %d: rank[%d] = %v, want %v", i+1, v, p.Ranks()[v], want[v])
				}
			}
		case *algorithms.BFS:
			want := algorithms.ReferenceBFS(g, p.Root)
			for v := range want {
				if p.Dist()[v] != want[v] {
					t.Fatalf("job %d: bfs dist[%d] = %d, want %d", i+1, v, p.Dist()[v], want[v])
				}
			}
		case *algorithms.WCC:
			want := algorithms.ReferenceWCC(g)
			for v := range want {
				if p.Labels()[v] != want[v] {
					t.Fatalf("job %d: wcc label[%d] = %d, want %d", i+1, v, p.Labels()[v], want[v])
				}
			}
		}
	}
}
