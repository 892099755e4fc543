package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphm/internal/graph"
	"graphm/internal/memsim"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.Any() || b.Count() != 0 {
		t.Fatal("fresh bitmap not empty")
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Has(0) || !b.Has(64) || !b.Has(129) || b.Has(1) {
		t.Fatal("Has wrong after Set")
	}
	if b.Count() != 3 {
		t.Fatalf("count = %d, want 3", b.Count())
	}
	b.Clear(64)
	if b.Has(64) || b.Count() != 2 {
		t.Fatal("Clear failed")
	}
	b.Reset()
	if b.Any() {
		t.Fatal("Reset failed")
	}
}

func TestBitmapSetAllRespectsLength(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 128} {
		b := NewBitmap(n)
		b.SetAll()
		if b.Count() != n {
			t.Fatalf("n=%d: count = %d after SetAll", n, b.Count())
		}
	}
}

func TestBitmapRanges(t *testing.T) {
	b := NewBitmap(256)
	b.Set(100)
	if !b.AnyInRange(0, 256) || !b.AnyInRange(100, 101) || b.AnyInRange(0, 100) || b.AnyInRange(101, 256) {
		t.Fatal("AnyInRange wrong")
	}
	if b.CountInRange(0, 256) != 1 || b.CountInRange(90, 110) != 1 || b.CountInRange(0, 100) != 0 {
		t.Fatal("CountInRange wrong")
	}
	// Out-of-bounds clamping.
	if b.AnyInRange(-5, 1000) != true {
		t.Fatal("clamped range lost the bit")
	}
}

func TestBitmapRangeProperty(t *testing.T) {
	f := func(bits []uint16, lo, hi uint16) bool {
		b := NewBitmap(1 << 16)
		set := map[int]bool{}
		for _, x := range bits {
			b.Set(int(x))
			set[int(x)] = true
		}
		l, h := int(lo), int(hi)
		if l > h {
			l, h = h, l
		}
		want := 0
		for v := range set {
			if v >= l && v < h {
				want++
			}
		}
		return b.CountInRange(l, h) == want && b.AnyInRange(l, h) == (want > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapCopyOr(t *testing.T) {
	a, b := NewBitmap(70), NewBitmap(70)
	a.Set(3)
	b.Set(69)
	b.Or(a)
	if !b.Has(3) || !b.Has(69) {
		t.Fatal("Or lost bits")
	}
	c := NewBitmap(70)
	c.CopyFrom(b)
	if c.Count() != 2 {
		t.Fatal("CopyFrom wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	c.CopyFrom(NewBitmap(71))
}

// countProg counts processed edges and activates nothing.
type countProg struct {
	active    *Bitmap
	processed int
}

func (p *countProg) Name() string { return "count" }
func (p *countProg) Reset(g *graph.Graph, rng *rand.Rand) {
	p.active = NewBitmap(g.NumV)
	p.active.SetAll()
}
func (p *countProg) BeforeIteration(iter int) bool { return iter == 0 }
func (p *countProg) ProcessEdge(e graph.Edge) bool { p.processed++; return false }
func (p *countProg) AfterIteration(iter int)       {}
func (p *countProg) Active() *Bitmap               { return p.active }
func (p *countProg) StateBytes() int64             { return 64 }
func (p *countProg) EdgeCost() float64             { return 1 }

func TestStreamEdgesCountsAndTouches(t *testing.T) {
	g, _ := graph.GenerateUniform("s", 64, 200, 1)
	cache, err := memsim.NewCache(memsim.DefaultConfig(32 << 10))
	if err != nil {
		t.Fatal(err)
	}
	prog := &countProg{}
	j := NewJob(1, prog, 1)
	j.Bind(g)
	j.StateBase = 1 << 30
	st := j.ApplyChunk(g.Edges, 0, 0, cache, DefaultCostModel())
	if st.Scanned != 200 || st.Processed != 200 {
		t.Fatalf("scanned/processed = %d/%d, want 200/200", st.Scanned, st.Processed)
	}
	if prog.processed != 200 {
		t.Fatalf("program saw %d edges", prog.processed)
	}
	if j.Met.SimMemNS == 0 || j.Met.SimComputeNS == 0 {
		t.Fatal("no simulated time accumulated")
	}
	if j.Ctr.Instructions == 0 {
		t.Fatal("no LLC touches recorded")
	}
}

func TestStreamEdgesSkipsInactiveSources(t *testing.T) {
	g := graph.MustNew("skip", 4, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}, {Src: 2, Dst: 3, Weight: 1}})
	cache, _ := memsim.NewCache(memsim.DefaultConfig(32 << 10))
	prog := &countProg{}
	j := NewJob(1, prog, 1)
	j.Bind(g)
	prog.active.Reset()
	prog.active.Set(1) // only source 1 active
	st := j.ApplyChunk(g.Edges, 0, 0, cache, DefaultCostModel())
	if st.Scanned != 3 {
		t.Fatalf("scanned = %d, want 3 (all edges stream)", st.Scanned)
	}
	if st.Processed != 1 {
		t.Fatalf("processed = %d, want 1", st.Processed)
	}
}

func TestStreamEdgesSharedAddressesHitAfterLeader(t *testing.T) {
	// Two jobs streaming the same chunk at the same base address: the
	// second mostly hits — the mechanism behind GraphM's Figure 13.
	g, _ := graph.GenerateUniform("share", 64, 500, 2)
	cache, _ := memsim.NewCache(memsim.DefaultConfig(64 << 10))
	mkJob := func(id int, stateBase uint64) *Job {
		p := &countProg{}
		j := NewJob(id, p, int64(id))
		j.Bind(g)
		j.StateBase = stateBase
		return j
	}
	leader := mkJob(1, 1<<30)
	follower := mkJob(2, 2<<30)
	leader.ApplyChunk(g.Edges, 0, 0, cache, DefaultCostModel())
	follower.ApplyChunk(g.Edges, 0, 0, cache, DefaultCostModel())
	if follower.Ctr.MissRate() >= leader.Ctr.MissRate() {
		t.Fatalf("follower miss rate %.3f not below leader %.3f",
			follower.Ctr.MissRate(), leader.Ctr.MissRate())
	}
}

func TestCostModelDiskNS(t *testing.T) {
	cm := DefaultCostModel()
	if got := cm.DiskNS(100e6); got != 1e9 {
		t.Fatalf("100MB at 100MB/s = %dns, want 1e9", got)
	}
}

func TestMetricsAddAndTotals(t *testing.T) {
	a := Metrics{ScannedEdges: 1, ProcessedEdges: 2, Iterations: 3, PartitionLoads: 4,
		SimComputeNS: 5, SimMemNS: 6, SimIONS: 7}
	var b Metrics
	b.Add(a)
	b.Add(a)
	if b.ScannedEdges != 2 || b.SimComputeNS != 10 {
		t.Fatalf("Add wrong: %+v", b)
	}
	if b.SimAccessNS() != 26 || b.SimTotalNS() != 36 {
		t.Fatalf("totals wrong: access=%d total=%d", b.SimAccessNS(), b.SimTotalNS())
	}
}
