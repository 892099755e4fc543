package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
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

// hookedProg runs hook from inside the job's compute: once armed with n,
// the n-th edge the program processes afterwards fires it, on whichever
// goroutine computes the job's chunk (a window owner under FineSync).
// Wrapping hides the inner program's batch path, so every edge goes
// through ProcessEdge.
type hookedProg struct {
	engine.Program
	countdown atomic.Int64
	hook      func()
}

func (p *hookedProg) ProcessEdge(e graph.Edge) bool {
	if p.countdown.Add(-1) == 0 {
		p.hook()
	}
	return p.Program.ProcessEdge(e)
}

// TestLockstepLivenessStress guards two-phase streaming's wake rules
// against lost wakeups: twelve ProcessAll attendees stream multi-chunk
// partitions in windows of two chunks while one job detaches in its second
// partition and — in the failure variant — another fails the system there.
// The workers=0 family fires both from inside the job's compute, in the
// partition's second window, so the window's owner is collecting and its
// pricer pricing while the other attendees are parked on the window. The
// unprefixed family fires both from the job's own goroutine between its
// ProcessAll and its partition barrier, while the other attendees are
// parked on that barrier or already in the next partition's windows. (The
// workers=0 prefix names the Workers setting every run uses; the two
// families keep the names they had when the unprefixed one ran a worker
// pool.) Every driver must return within the bound at GOMAXPROCS 1, 2 and
// 4; run it under -race. The Share-only variant (FineSync off) streams each
// job's chunks back to back on its own goroutine, with no window to park on.
func TestLockstepLivenessStress(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("lockstep", 1200, 12000, 31))
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		for _, inCompute := range []bool{true, false} {
			for _, fineSync := range []bool{true, false} {
				for _, inject := range []bool{false, true} {
					// A stalled run leaves its drivers parked; stop rather
					// than pile more stalled runs on top of them.
					name := fmt.Sprintf("gomaxprocs=%d/finesync=%v/fail=%v", procs, fineSync, inject)
					if inCompute {
						name = "workers=0/" + name
					}
					if !t.Run(name, func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						runLockstepStress(t, g, inCompute, fineSync, inject)
					}) {
						return
					}
				}
			}
		}
	}
}

func runLockstepStress(t *testing.T, g *graph.Graph, inCompute, fineSync, inject bool) {
	const (
		numJobs  = 12
		detachID = 4
		failID   = 8
	)
	errInjected := errors.New("injected failure")
	disk := storage.NewDisk()
	cfg := DefaultConfig(16 << 10)
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
			t.Fatalf("partition %d has %d chunks — the stress needs multi-window partitions", pid, n)
		}
	}
	s.window = 2

	type driven struct {
		sess *Session
		prog engine.Program
		fire func()      // the detach or failure trigger, nil for the others
		hook *hookedProg // fires fire from inside the compute (inCompute only)
	}
	var jobs []driven
	for id := 1; id <= numJobs; id++ {
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
		d := driven{prog: p}
		if id == failID && inject {
			d.fire = func() { s.fail(errInjected) }
		}
		run := p
		if inCompute && (id == detachID || d.fire != nil) {
			d.hook = &hookedProg{Program: p}
			run = d.hook
		}
		d.sess, err = s.OpenSession(engine.NewJob(id, run, int64(id)))
		if err != nil {
			t.Fatal(err)
		}
		if id == detachID {
			d.fire = d.sess.Detach
		}
		if d.hook != nil {
			d.hook.hook = d.fire
		}
		jobs = append(jobs, d)
	}

	var wg sync.WaitGroup
	for i, d := range jobs {
		// The detach fires in the job's first iteration and the failure in
		// its second, each in its second partition: in its second window
		// (inCompute) or once its ProcessAll returns.
		trigger := 0
		if i+1 == failID {
			trigger = 1
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer d.sess.Close()
			for d.sess.BeginIteration() {
				nth := 0
				for sp := d.sess.Sharing(); sp != nil; sp = d.sess.Sharing() {
					nth++
					armed := d.fire != nil && d.sess.iter == trigger && nth == 2
					if armed && d.hook != nil {
						chunks := sp.cp.set.Chunks
						d.hook.countdown.Store(int64(chunks[0].NumEdges + chunks[1].NumEdges + 1))
					}
					sp.ProcessAll()
					if armed && d.hook == nil {
						d.fire()
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
		t.Fatal("the detach was never honored")
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
