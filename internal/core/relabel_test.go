package core_test

import (
	"math"
	"testing"
	"time"

	"graphm/internal/algorithms"
	"graphm/internal/core"
	"graphm/internal/engine"
	"graphm/internal/graph"
)

// adaptiveConfig returns a config whose static sizing assumes one core, so
// any multi-job phase drifts past the 2x hysteresis immediately.
func adaptiveConfig(llc int64) core.Config {
	cfg := core.DefaultConfig(llc)
	cfg.Cores = 1
	cfg.AdaptiveChunking = true
	return cfg
}

func TestAdaptiveConfigValidation(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("v", 128, 800, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0.5, -1} {
		cfg := core.DefaultConfig(64 << 10)
		cfg.AdaptiveChunking = true
		cfg.RelabelFactor = f
		if _, err := newRigErr(t, g, cfg); err == nil {
			t.Fatalf("RelabelFactor=%v accepted", f)
		}
	}
	// Factor 1 (no hysteresis) and 0 (default) are both valid.
	for _, f := range []float64{0, 1, 3} {
		cfg := core.DefaultConfig(64 << 10)
		cfg.RelabelFactor = f
		if _, err := newRigErr(t, g, cfg); err != nil {
			t.Fatalf("RelabelFactor=%v rejected: %v", f, err)
		}
	}
}

// TestAdaptiveRelabelRampCorrect runs a concurrency ramp under adaptive
// chunking — 6 short jobs alongside 2 long ones, so attendance drops 8 -> 2
// mid-run — and checks that (a) re-labels fired in both directions, (b) the
// algorithm results are still exact, and (c) the re-labelled chunk tables
// still tile every partition.
func TestAdaptiveRelabelRampCorrect(t *testing.T) {
	cfg := adaptiveConfig(32 << 10)
	r := newRig(t, 400, 3000, 2, cfg)

	var jobs []*engine.Job
	var prs []*algorithms.PageRank
	for i := 0; i < 6; i++ {
		pr := algorithms.NewPageRank(0.85, 3)
		pr.Tolerance = 1e-12
		prs = append(prs, pr)
		jobs = append(jobs, engine.NewJob(i+1, pr, int64(i+1)))
	}
	long1 := algorithms.NewPageRank(0.7, 9)
	long1.Tolerance = 1e-12
	long2 := algorithms.NewWCC(1000)
	jobs = append(jobs, engine.NewJob(7, long1, 7), engine.NewJob(8, long2, 8))

	if err := r.sys.Run(jobs); err != nil {
		t.Fatal(err)
	}
	st := r.sys.StatsSnapshot()
	if st.Relabels < 2 {
		t.Fatalf("relabels = %d, want >= 2 (shrink on the 8-job phase, grow after the drop)", st.Relabels)
	}
	// The ramp shrinks chunks for the 8-job phase and grows them back when
	// attendance drops, so some partition must have been re-labelled at
	// least twice — and per-partition sizes must stay consistent with their
	// epochs (epoch 0 partitions still carry the static Formula (1) size).
	maxEpoch := 0
	for pid := 0; pid < r.sys.NumPartitions(); pid++ {
		if e := r.sys.ChunkEpoch(pid); e > maxEpoch {
			maxEpoch = e
		} else if e == 0 && r.sys.PartitionChunkBytes(pid) != r.sys.ChunkBytes() {
			t.Fatalf("partition %d at epoch 0 but size %d != static %d", pid, r.sys.PartitionChunkBytes(pid), r.sys.ChunkBytes())
		}
	}
	if maxEpoch < 2 {
		t.Fatalf("max labelling epoch = %d, want >= 2 (shrink then grow)", maxEpoch)
	}

	wantPR := algorithms.ReferencePageRank(r.g, 0.85, 3)
	for _, pr := range prs {
		for v := range wantPR {
			if math.Abs(pr.Ranks()[v]-wantPR[v]) > 1e-9 {
				t.Fatalf("adaptive run diverged: rank[%d] = %g, want %g", v, pr.Ranks()[v], wantPR[v])
			}
		}
	}
	wantWCC := algorithms.ReferenceWCC(r.g)
	for v := range wantWCC {
		if long2.Labels()[v] != wantWCC[v] {
			t.Fatalf("adaptive run diverged: wcc[%d] = %d, want %d", v, long2.Labels()[v], wantWCC[v])
		}
	}

	// Re-labelled chunk tables must still tile each partition exactly.
	total := 0
	for pid := 0; pid < r.sys.NumPartitions(); pid++ {
		for k := 0; k < r.sys.ChunkCount(pid); k++ {
			edges, err := r.sys.ChunkView(-1, pid, k)
			if err != nil {
				t.Fatal(err)
			}
			total += len(edges)
		}
	}
	if total != r.g.NumEdges() {
		t.Fatalf("re-labelled chunks cover %d edges, want %d", total, r.g.NumEdges())
	}
}

// TestAdaptiveHysteresisHoldsLine: a drift under the 2x factor (4 cores
// assumed, 6 jobs attending: 1.5x) must skip, never re-label.
func TestAdaptiveHysteresisHoldsLine(t *testing.T) {
	cfg := core.DefaultConfig(64 << 10)
	cfg.Cores = 4
	cfg.AdaptiveChunking = true
	r := newRig(t, 400, 3000, 2, cfg)
	var jobs []*engine.Job
	for i := 0; i < 6; i++ {
		pr := algorithms.NewPageRank(0.85, 4)
		pr.Tolerance = 1e-12
		jobs = append(jobs, engine.NewJob(i+1, pr, int64(i+1)))
	}
	if err := r.sys.Run(jobs); err != nil {
		t.Fatal(err)
	}
	st := r.sys.StatsSnapshot()
	if st.Relabels != 0 {
		t.Fatalf("relabels = %d, want 0 under hysteresis", st.Relabels)
	}
	if st.RelabelSkips == 0 {
		t.Fatal("no relabel evaluation was skipped — the hysteresis path never ran")
	}
	for pid := 0; pid < r.sys.NumPartitions(); pid++ {
		if r.sys.ChunkEpoch(pid) != 0 {
			t.Fatalf("partition %d re-labelled (epoch %d) despite hysteresis", pid, r.sys.ChunkEpoch(pid))
		}
	}
}

// TestAdaptiveOffNeverRelabels pins the default: without AdaptiveChunking
// the counters stay zero however the attendance moves.
func TestAdaptiveOffNeverRelabels(t *testing.T) {
	cfg := core.DefaultConfig(32 << 10)
	cfg.Cores = 1
	r := newRig(t, 300, 2000, 2, cfg)
	if err := r.sys.Run(rotationJobs(6, 11)); err != nil {
		t.Fatal(err)
	}
	st := r.sys.StatsSnapshot()
	if st.Relabels != 0 || st.RelabelSkips != 0 {
		t.Fatalf("static run recorded relabel activity: %d relabels, %d skips", st.Relabels, st.RelabelSkips)
	}
}

// TestAdaptiveMatchesStaticWork: the same workload under static and adaptive
// chunking must do identical schedule-independent work and produce
// bit-identical PageRank ranks — re-labelling changes granularity, never
// results.
func TestAdaptiveMatchesStaticWork(t *testing.T) {
	run := func(adaptive bool) ([]float64, []engine.WorkCounters) {
		cfg := core.DefaultConfig(32 << 10)
		cfg.Cores = 1
		cfg.AdaptiveChunking = adaptive
		r := newRig(t, 400, 3000, 2, cfg)
		var jobs []*engine.Job
		var prs []*algorithms.PageRank
		for i := 0; i < 5; i++ {
			pr := algorithms.NewPageRank(0.85, 4)
			pr.Tolerance = 1e-12
			prs = append(prs, pr)
			jobs = append(jobs, engine.NewJob(i+1, pr, int64(i+1)))
		}
		if err := r.sys.Run(jobs); err != nil {
			t.Fatal(err)
		}
		if adaptive {
			if st := r.sys.StatsSnapshot(); st.Relabels == 0 {
				t.Fatal("adaptive run never re-labelled — the comparison is vacuous")
			}
		}
		var work []engine.WorkCounters
		for _, j := range jobs {
			work = append(work, j.Met.Work())
		}
		return prs[0].Ranks(), work
	}
	staticRanks, staticWork := run(false)
	ranks, work := run(true)
	for i := range staticWork {
		if work[i] != staticWork[i] {
			t.Fatalf("job %d work %+v != static %+v", i+1, work[i], staticWork[i])
		}
	}
	for v := range staticRanks {
		if ranks[v] != staticRanks[v] {
			t.Fatalf("rank[%d] %v != static %v (not bit-identical)", v, ranks[v], staticRanks[v])
		}
	}
}

// TestMutateChunkCallbackMayReenterSystem guards the locking contract: the
// MutateChunk callback runs with no System lock held, so it may call public
// System methods (here ChunkView on another chunk) without deadlocking.
func TestMutateChunkCallbackMayReenterSystem(t *testing.T) {
	r := newRig(t, 200, 1600, 2, core.DefaultConfig(64<<10))
	other, err := r.sys.ChunkView(-1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- r.sys.MutateChunk(5, 0, 0, func(edges []graph.Edge) []graph.Edge {
			// Re-enter the System mid-callback — this deadlocked when the
			// callback ran under the controller mutex.
			v, err := r.sys.ChunkView(-1, 1, 0)
			if err != nil || len(v) != len(other) {
				t.Errorf("re-entrant ChunkView failed: %v (len %d vs %d)", err, len(v), len(other))
			}
			return append(edges, graph.Edge{Src: 1, Dst: 2, Weight: 1})
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("MutateChunk with a re-entrant callback deadlocked")
	}
	mutated, err := r.sys.ChunkView(5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	base, err := r.sys.ChunkView(-1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mutated) != len(base)+1 {
		t.Fatalf("mutation lost: view has %d edges, want %d", len(mutated), len(base)+1)
	}
}

// TestAdaptiveWithEvolvedGraph exercises the snapshot rebase end to end:
// updates and a private mutation are installed, a ramp forces re-labels, and
// every observer's full partition streams must be preserved bit-for-bit.
func TestAdaptiveWithEvolvedGraph(t *testing.T) {
	cfg := adaptiveConfig(32 << 10)
	r := newRig(t, 300, 2400, 2, cfg)

	// A global update (visible to jobs submitted later) and a private
	// mutation for a job ID that never runs.
	if _, err := r.sys.AddEdges([]graph.Edge{{Src: 1, Dst: 2, Weight: 1}, {Src: 200, Dst: 3, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := r.sys.AddEdgesFor(42, []graph.Edge{{Src: 5, Dst: 6, Weight: 1}}); err != nil {
		t.Fatal(err)
	}

	stream := func(jobID int) []graph.Edge {
		var out []graph.Edge
		for pid := 0; pid < r.sys.NumPartitions(); pid++ {
			for k := 0; k < r.sys.ChunkCount(pid); k++ {
				edges, err := r.sys.ChunkView(jobID, pid, k)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, edges...)
			}
		}
		return out
	}
	baseBefore := stream(-1)
	privBefore := stream(42)

	if err := r.sys.Run(rotationJobs(8, 21)); err != nil {
		t.Fatal(err)
	}
	if st := r.sys.StatsSnapshot(); st.Relabels == 0 {
		t.Fatal("ramp forced no relabel — rebase path not exercised")
	}

	for name, pair := range map[string][2][]graph.Edge{
		"current-version view": {baseBefore, stream(-1)},
		"mutation owner view":  {privBefore, stream(42)},
	} {
		before, after := pair[0], pair[1]
		if len(before) != len(after) {
			t.Fatalf("%s: stream length %d -> %d across relabel", name, len(before), len(after))
		}
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("%s: edge %d changed across relabel", name, i)
			}
		}
	}
}
