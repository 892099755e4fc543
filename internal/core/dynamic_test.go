package core_test

import (
	"testing"
	"time"

	"graphm/internal/algorithms"
	"graphm/internal/core"
	"graphm/internal/engine"
)

// drive runs a session through the standard driver loop (the same loop
// System.Submit and the admission service use).
func drive(sess *core.Session) {
	for sess.BeginIteration() {
		finishIteration(sess, sess.Sharing())
	}
	sess.Close()
}

// finishIteration completes the current iteration starting from an
// already-obtained shared partition (nil if the iteration has none).
func finishIteration(sess *core.Session, sp *core.SharedPartition) {
	for sp != nil {
		sp.ProcessAll()
		sp.Barrier()
		sp = sess.Sharing()
	}
	sess.EndIteration()
}

// TestMidRoundAttachCompletesFullIteration verifies the dynamic-admission
// hook: a job that joins while a round is streaming must still produce the
// same answer as a solo run — the partitions its round has already passed
// are appended to the round order, so no iteration is partial.
func TestMidRoundAttachCompletesFullIteration(t *testing.T) {
	r := newRig(t, 600, 5000, 4, core.DefaultConfig(64<<10))

	long := algorithms.NewPageRank(0.85, 30)
	long.Tolerance = -1 // negative disables the early exit; 0 would mean Reset's 1e-7 default
	jLong := engine.NewJob(1, long, 21)
	sessLong, err := r.sys.OpenSession(jLong)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the long job by hand up to its first partition and hold it
	// there: the round is now provably in flight while the late job joins.
	if !sessLong.BeginIteration() {
		t.Fatal("long job refused its first iteration")
	}
	held := sessLong.Sharing()
	if held == nil {
		t.Fatal("long job's first iteration has no partitions")
	}

	bfs := algorithms.NewBFS(3)
	jLate := engine.NewJob(2, bfs, 22)
	sessLate, err := r.sys.OpenSessionWith(jLate, core.SessionOptions{JoinMidRound: true})
	if err != nil {
		t.Fatal(err)
	}
	lateDone := make(chan struct{})
	go func() {
		drive(sessLate)
		close(lateDone)
	}()
	// The pinned round cannot end, so the late driver must attach to it.
	deadline := time.Now().Add(10 * time.Second)
	for r.sys.StatsSnapshot().MidRoundJoins == 0 {
		if time.Now().After(deadline) {
			t.Fatal("late job never attached to the pinned round")
		}
		time.Sleep(time.Millisecond)
	}
	// Resume the long job: finish the held iteration, then run it out.
	finishIteration(sessLong, held)
	for sessLong.BeginIteration() {
		finishIteration(sessLong, sessLong.Sharing())
	}
	sessLong.Close()
	<-lateDone

	want := algorithms.ReferenceBFS(r.g, 3)
	got := bfs.Dist()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("mid-round BFS dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	if err := r.sys.Wait(); err != nil {
		t.Fatal(err)
	}
	st := r.sys.StatsSnapshot()
	if st.MidRoundJoins == 0 {
		t.Fatal("late job never attached mid-round")
	}
	if st.SharedLoads == 0 {
		t.Fatal("late job shared no partition loads with the running job")
	}
}

// TestDetachWithdrawsEndlessJob verifies the detach hook: an endless job
// asked to detach leaves the controller at a partition barrier without
// wedging the round for the remaining jobs.
func TestDetachWithdrawsEndlessJob(t *testing.T) {
	r := newRig(t, 600, 5000, 4, core.DefaultConfig(64<<10))

	endless := algorithms.NewPageRank(0.85, 1_000_000)
	// Negative tolerance disables the early exit entirely; zero would be
	// replaced by Reset's 1e-7 default, and PageRank on this small graph
	// reaches that within the test's polling sleep — the job would converge
	// naturally before the detach landed and Detaches would stay 0.
	endless.Tolerance = -1
	jEndless := engine.NewJob(1, endless, 31)
	sessEndless, err := r.sys.OpenSession(jEndless)
	if err != nil {
		t.Fatal(err)
	}
	finished := make(chan struct{})
	go func() {
		drive(sessEndless)
		close(finished)
	}()

	wcc := algorithms.NewWCC(0)
	jW := engine.NewJob(2, wcc, 32)
	sessW, err := r.sys.OpenSession(jW)
	if err != nil {
		t.Fatal(err)
	}
	go drive(sessW)

	deadline := time.Now().Add(5 * time.Second)
	for r.sys.StatsSnapshot().Rounds == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no round ever started")
		}
		time.Sleep(time.Millisecond)
	}
	sessEndless.Detach()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("detached job never exited its driver loop")
	}
	if err := r.sys.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := r.sys.StatsSnapshot(); st.Detaches != 1 {
		t.Fatalf("Detaches = %d, want 1", st.Detaches)
	}
	// The surviving job must have converged to the right answer.
	want := algorithms.ReferenceWCC(r.g)
	got := wcc.Labels()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("WCC label[%d] = %d, want %d after co-job detached", v, got[v], want[v])
		}
	}
}

// TestDetachWhileWaitingAtRoundBarrier verifies that a job blocked waiting
// for a round to form withdraws without joining it: it must never be billed
// an attendance share for partitions it would not stream.
func TestDetachWhileWaitingAtRoundBarrier(t *testing.T) {
	r := newRig(t, 400, 3000, 4, core.DefaultConfig(64<<10))

	// A registered session that never begins an iteration keeps the round
	// barrier from forming (readyCount < live).
	blocker := engine.NewJob(1, algorithms.NewWCC(0), 41)
	sessBlocker, err := r.sys.OpenSession(blocker)
	if err != nil {
		t.Fatal(err)
	}

	wcc := algorithms.NewWCC(0)
	jWaiter := engine.NewJob(2, wcc, 42)
	sessWaiter, err := r.sys.OpenSession(jWaiter)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		drive(sessWaiter)
		close(done)
	}()
	// Let the waiter reach the barrier, then withdraw it.
	time.Sleep(20 * time.Millisecond)
	sessWaiter.Detach()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("detached job never left the round barrier")
	}
	sessBlocker.Close()
	if err := r.sys.Wait(); err != nil {
		t.Fatal(err)
	}
	st := r.sys.StatsSnapshot()
	if st.Detaches != 1 {
		t.Fatalf("Detaches = %d, want exactly 1", st.Detaches)
	}
	if st.Rounds != 0 {
		t.Fatalf("a round formed (%d) although no job ever streamed", st.Rounds)
	}
	if jWaiter.Met.PartitionLoads != 0 || jWaiter.Met.SimIONS != 0 {
		t.Fatalf("withdrawn job was billed for loads it never streamed: %+v", jWaiter.Met)
	}
}

// TestStatsSubDeltas covers the per-job stats-delta arithmetic used by the
// service layer.
func TestStatsSubDeltas(t *testing.T) {
	old := core.Stats{Rounds: 2, SharedLoads: 5, ChunkBytes: 1024, NumChunks: 8, MetadataBytes: 64}
	cur := core.Stats{Rounds: 7, SharedLoads: 11, MidRoundJoins: 3, Detaches: 1,
		ChunkBytes: 1024, NumChunks: 8, MetadataBytes: 64}
	d := cur.Sub(old)
	if d.Rounds != 5 || d.SharedLoads != 6 || d.MidRoundJoins != 3 || d.Detaches != 1 {
		t.Fatalf("delta = %+v", d)
	}
	if d.ChunkBytes != 1024 || d.NumChunks != 8 || d.MetadataBytes != 64 {
		t.Fatalf("sizing fields not carried over: %+v", d)
	}
}
