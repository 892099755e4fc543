package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"graphm/internal/graph"
)

// Workload constants. The daemon otherwise runs graphm-serve's shipped
// defaults (-max-inflight 8, -queue 64, -workers 0, -cores 8, fsync on,
// checkpoint cadence 256 records).
const (
	// poissonRate is the open-loop arrival rate on twitter: about three
	// quarters of the ~34 jobs/s the daemon's service sustains there on a
	// 2-CPU box (a 200-job one-shot graphm-serve burst), so jobs overlap and
	// share loads while queues still drain.
	poissonRate = 25.0
	// backlogRate sizes ukunion-backlog: about the jobs/s the daemon
	// finishes on uk-union, so the run's batches take about its seconds.
	// The jobs split into equal batches of at most backlogBatch (30 per
	// tenant, inside the default 64-per-tenant queue bound, so no
	// submission is refused), each on a fresh daemon: the daemon keeps
	// every finished ticket, so one long batch would grow its memory with
	// the run's length.
	backlogRate  = 12.0
	backlogBatch = 120
	// evolveEdges is the size of one edge-add batch. Seven adds of two
	// random edges roughly replace the ~14 in-edges one delete removes, so
	// the graph stays near its preset size over a run.
	evolveEdges = 2
	// thinkTime is each durable-evolve client's pause between ops. Without
	// it the two clients submit a job every 8th op at ~130 jobs/s, about
	// twice what the daemon finishes on livej, and the queue fills until
	// submissions are refused; with it jobs arrive at roughly half of that
	// capacity.
	thinkTime = 6 * time.Millisecond
	tenants   = 4
)

var rotation = []string{"wcc", "pagerank", "sssp", "bfs"}

// workload is one traffic mix against one daemon configuration.
type workload struct {
	name    string
	dataset string
	durable bool
	// streaming workloads must share partition loads; a run where none was
	// shared is not the regime the workload exists to measure.
	streaming bool
	run       func(r *runner) error
}

var workloads = []workload{
	{name: "twitter-poisson", dataset: graph.PresetTwitter, streaming: true, run: runPoisson},
	{name: "ukunion-backlog", dataset: graph.PresetUKUnion, streaming: true, run: runBacklog},
	{name: "durable-evolve", dataset: graph.PresetLiveJ, durable: true, run: runDurableEvolve},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runner executes one workload against one target and gathers what the
// client side sees.
type runner struct {
	w       workload
	t       target
	seed    int64
	seconds float64
	conns   int
	workDir string
	// setupSamples is how many daemon starts feed setup_s (the median).
	setupSamples int
	dirs         int

	res result
}

// jobRec is one accepted job as the client saw it, completed by the
// ticket view read after it turned terminal.
type jobRec struct {
	sched time.Time // when the job was due to be sent
	ack   time.Time
	id    int
	view  ticketView
}

// done reconstructs the instant the job finished: its submit ack plus the
// server-reported queue wait and runtime.
func (j jobRec) done() time.Time {
	return j.ack.Add(time.Duration((j.view.QueueWaitSeconds + j.view.RuntimeSeconds) * float64(time.Second)))
}

// result is everything a workload run measured from outside the daemon.
type result struct {
	mu sync.Mutex

	setup     []float64
	jobs      []jobRec
	submitRTT []float64
	evolveRTT []float64
	lateness  []float64
	sent      int

	attempted     int
	refused       int // 429 / 503
	rejected      int // any other non-2xx
	transportErrs int
	notDone       int

	// windows are the measured intervals the rates pool: one per backlog
	// batch, one for the whole load otherwise.
	windows     []window
	evolveAcked int
	writesAcked int

	recovery   []float64
	rss        []float64
	maxAcked   int
	violations []string
	errors     []string
}

func (r *runner) violate(format string, args ...any) {
	r.res.mu.Lock()
	r.res.violations = append(r.res.violations, fmt.Sprintf(format, args...))
	r.res.mu.Unlock()
}

// freshDir returns a new empty data directory under the work directory.
func (r *runner) freshDir() (string, error) {
	r.dirs++
	dir := filepath.Join(r.workDir, fmt.Sprintf("data-%d", r.dirs))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// boot launches a daemon and waits for it to answer /healthz; the time
// from launch to that answer is one setup_s sample.
func (r *runner) boot(dataDir string, wantRecovered bool) (*client, float64, error) {
	start := time.Now()
	base, err := r.t.launch(r.w.dataset, dataDir)
	if err != nil {
		return nil, 0, err
	}
	healthy, err := waitHealthy(base, wantRecovered, 60*time.Second)
	if err != nil {
		r.t.kill()
		return nil, 0, err
	}
	return newClient(base, r.conns), healthy.Sub(start).Seconds(), nil
}

// setupOnly starts and stops n daemons for their setup_s samples.
func (r *runner) setupOnly(n int) error {
	for i := 0; i < n; i++ {
		dir := ""
		if r.w.durable {
			d, err := r.freshDir()
			if err != nil {
				return err
			}
			dir = d
		}
		c, secs, err := r.boot(dir, false)
		if err != nil {
			return err
		}
		c.close()
		r.res.setup = append(r.res.setup, secs)
		if err := r.t.stop(); err != nil {
			return err
		}
	}
	return nil
}

// jobSpec is one job the workload will submit.
type jobSpec struct {
	tenant string
	algo   string
	seed   int64
}

func jobSpecs(rng *rand.Rand, n int) []jobSpec {
	specs := make([]jobSpec, n)
	for i := range specs {
		specs[i] = jobSpec{
			tenant: fmt.Sprintf("tenant-%d", i%tenants),
			algo:   rotation[i%len(rotation)],
			seed:   rng.Int63n(1<<31) + 1,
		}
	}
	return specs
}

// submit sends one job and records the client's view of it.
func (r *runner) submit(c *client, spec jobSpec, sched time.Time) {
	sent := time.Now()
	tv, code, err := c.submit(spec.tenant, spec.algo, spec.seed)
	ack := time.Now()
	res := &r.res
	res.mu.Lock()
	defer res.mu.Unlock()
	res.attempted++
	res.sent++
	if err != nil {
		res.countFailure(code)
		res.errors = append(res.errors, err.Error())
		return
	}
	res.submitRTT = append(res.submitRTT, ack.Sub(sent).Seconds())
	res.writesAcked++
	res.jobs = append(res.jobs, jobRec{sched: sched, ack: ack, id: tv.ID})
	res.maxAcked = max(res.maxAcked, tv.ID)
}

// window is one measured interval: jobs completed over jobSecs, and write
// calls acknowledged over loadSecs (the span the client kept sending).
type window struct {
	completed int
	jobSecs   float64
	writes    int
	loadSecs  float64
}

// addWindow closes a measured interval over the jobs from index from on.
// Caller has collected their ticket views.
func (r *runner) addWindow(from, writes int, jobSecs, loadSecs float64) {
	w := window{writes: writes, jobSecs: jobSecs, loadSecs: loadSecs}
	for _, j := range r.res.jobs[from:] {
		if j.view.Status == "done" {
			w.completed++
		}
	}
	r.res.windows = append(r.res.windows, w)
}

// countFailure classifies a failed call. Caller holds res.mu.
func (res *result) countFailure(code int) {
	switch {
	case code == 0:
		res.transportErrs++
	case code == 429 || code == 503:
		res.refused++
	default:
		res.rejected++
	}
}

// collect reads every accepted ticket once (the load is over and each is
// terminal), checks each ended done, and hands the IDs to the target.
func (r *runner) collect(c *client, from int) error {
	jobs := r.res.jobs[from:]
	ids := make([]int, len(jobs))
	for i := range jobs {
		tv, err := c.ticket(jobs[i].id)
		if err != nil {
			return err
		}
		jobs[i].view = tv
		ids[i] = tv.ID
		if tv.Status != "done" {
			r.res.notDone++
			r.violate("ticket %d ended %s, not done (%s)", tv.ID, tv.Status, tv.Error)
		}
	}
	rss, err := r.t.peakRSSMB()
	if err != nil {
		return err
	}
	r.res.rss = append(r.res.rss, rss)
	r.t.observe(ids)
	return nil
}

// checkDrain applies the drain-side correctness gate.
func (r *runner) checkDrain(dv drainView) {
	if dv.Failed > 0 || dv.Error != "" {
		r.violate("drain reported %d failed tickets (%s)", dv.Failed, dv.Error)
	}
	if r.w.streaming && dv.SharedLoads == 0 {
		r.violate("no partition load was shared on a streaming workload")
	}
}

// lastDone is the latest reconstructed finish among jobs.
func lastDone(jobs []jobRec) time.Time {
	var last time.Time
	for _, j := range jobs {
		if d := j.done(); d.After(last) {
			last = d
		}
	}
	return last
}

// runPoisson is twitter-poisson: an open loop of Poisson arrivals at a
// fixed rate, sent through at most conns connections. Each job is timed
// from when it was due, so a stalled sender charges its delay to the jobs
// queued behind it.
func runPoisson(r *runner) error {
	if err := r.setupOnly(r.setupSamples - 1); err != nil {
		return err
	}
	offsets := poissonSchedule(r.seed, poissonRate, int(math.Ceil(r.seconds)))
	n := len(offsets)
	specs := jobSpecs(rand.New(rand.NewSource(r.seed+1)), n)

	c, secs, err := r.boot("", false)
	if err != nil {
		return err
	}
	defer c.close()
	r.res.setup = append(r.res.setup, secs)

	type item struct {
		spec jobSpec
		due  time.Time
	}
	queue := make(chan item, n) // sized to every send: the pacer never blocks
	var wg sync.WaitGroup
	for w := 0; w < r.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				late := time.Since(it.due).Seconds()
				r.res.mu.Lock()
				r.res.lateness = append(r.res.lateness, late)
				r.res.mu.Unlock()
				r.submit(c, it.spec, it.due)
			}
		}()
	}
	t0 := time.Now().Add(5 * time.Millisecond)
	for i, off := range offsets {
		due := t0.Add(off)
		time.Sleep(time.Until(due))
		queue <- item{spec: specs[i], due: due}
	}
	close(queue)
	wg.Wait()
	loadSecs := time.Since(t0).Seconds()

	dv, err := c.drain()
	if err != nil {
		return err
	}
	r.checkDrain(dv)
	if err := r.collect(c, 0); err != nil {
		return err
	}
	r.addWindow(0, r.res.writesAcked, lastDone(r.res.jobs).Sub(t0).Seconds(), loadSecs)
	return r.t.stop()
}

// runBacklog is ukunion-backlog: equal batches of jobs submitted
// back-to-back to a fresh daemon, each followed by POST /v1/drain. A
// batch's throughput interval runs from its first submit to the drain's
// return; the rates pool every batch's jobs over their summed intervals.
func runBacklog(r *runner) error {
	rng := rand.New(rand.NewSource(r.seed))
	total := int(math.Ceil(backlogRate * r.seconds))
	batches := (total + backlogBatch - 1) / backlogBatch
	for b := 0; b < batches; b++ {
		if err := r.backlogBatch(jobSpecs(rng, total/batches)); err != nil {
			return err
		}
	}
	return r.setupOnly(r.setupSamples - len(r.res.setup))
}

func (r *runner) backlogBatch(specs []jobSpec) error {
	c, secs, err := r.boot("", false)
	if err != nil {
		return err
	}
	defer c.close()
	r.res.setup = append(r.res.setup, secs)
	from := len(r.res.jobs)

	next := make(chan jobSpec, len(specs)) // holds the whole batch
	for _, s := range specs {
		next <- s
	}
	close(next)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < r.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				r.submit(c, s, t0)
			}
		}()
	}
	wg.Wait()
	dv, err := c.drain()
	if err != nil {
		return err
	}
	interval := time.Since(t0).Seconds()
	r.checkDrain(dv)
	if err := r.collect(c, from); err != nil {
		return err
	}
	r.addWindow(from, len(r.res.jobs)-from, interval, interval)
	return r.t.stop()
}

// runDurableEvolve is durable-evolve: two closed-loop clients, each pausing
// thinkTime between ops, mutate the graph of a durable daemon (about seven
// edge-add batches per delete) and submit a job every 8th op. After the
// load the daemon is SIGKILLed and restarted on the same directory three
// times; each restart is one recovery_s sample, and the last one must hand
// out a ticket ID above every acknowledged one and drain cleanly.
func runDurableEvolve(r *runner) error {
	if err := r.setupOnly(r.setupSamples - 1); err != nil {
		return err
	}
	spec, ok := graph.Spec(r.w.dataset)
	if !ok {
		return fmt.Errorf("unknown dataset %q", r.w.dataset)
	}
	dir, err := r.freshDir()
	if err != nil {
		return err
	}
	c, secs, err := r.boot(dir, false)
	if err != nil {
		return err
	}
	defer c.close()
	r.res.setup = append(r.res.setup, secs)

	t0 := time.Now()
	deadline := t0.Add(time.Duration(r.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for cl := 0; cl < r.conns; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.seed*31 + int64(cl)))
			jobs := jobSpecs(rng, 1<<12)
			for k := 1; time.Now().Before(deadline); k++ {
				time.Sleep(thinkTime)
				if k%8 == 0 {
					r.submit(c, jobs[(k/8)%len(jobs)], time.Now())
					continue
				}
				r.evolve(c, rng, spec.NumV)
			}
		}(cl)
	}
	wg.Wait()
	loadSecs := time.Since(t0).Seconds()

	if err := waitIdle(c, 60*time.Second); err != nil {
		return err
	}
	if err := r.collect(c, 0); err != nil {
		return err
	}
	r.addWindow(0, r.res.writesAcked, lastDone(r.res.jobs).Sub(t0).Seconds(), loadSecs)
	return r.recover(dir, 3)
}

// evolve sends one evolve op: a delete of every edge into a random vertex
// with probability 1/8, else a batch of random edges.
func (r *runner) evolve(c *client, rng *rand.Rand, numV int) {
	var code int
	var err error
	sent := time.Now()
	if rng.Intn(8) == 0 {
		code, err = c.removeInto(uint32(rng.Intn(numV)))
	} else {
		edges := make([]edgeJSON, evolveEdges)
		for i := range edges {
			edges[i] = edgeJSON{Src: uint32(rng.Intn(numV)), Dst: uint32(rng.Intn(numV)), Weight: 1 + rng.Float32()}
		}
		code, err = c.addEdges(edges)
	}
	rtt := time.Since(sent).Seconds()
	res := &r.res
	res.mu.Lock()
	defer res.mu.Unlock()
	res.attempted++
	if err != nil {
		res.countFailure(code)
		res.errors = append(res.errors, err.Error())
		return
	}
	res.evolveRTT = append(res.evolveRTT, rtt)
	res.evolveAcked++
	res.writesAcked++
}

// waitIdle polls /metrics until no ticket is queued or in flight.
func waitIdle(c *client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		m, err := c.metrics()
		if err != nil {
			return err
		}
		if m["graphm_queue_depth"] == 0 && m["graphm_jobs_in_flight"] == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon still busy after %v", timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// recover SIGKILLs the running daemon and restarts it on dir n times, one
// recovery_s sample each, then checks ticket-ID continuity and drains.
func (r *runner) recover(dir string, n int) error {
	var c *client
	for i := 0; i < n; i++ {
		r.t.kill()
		var secs float64
		var err error
		c, secs, err = r.boot(dir, true)
		if err != nil {
			r.violate("restart %d: %v", i+1, err)
			return nil
		}
		r.res.recovery = append(r.res.recovery, secs)
		if i < n-1 {
			c.close()
		}
	}
	defer c.close()
	tv, _, err := c.submit("tenant-0", "bfs", r.seed)
	if err != nil {
		r.violate("submit after restart: %v", err)
	} else if tv.ID <= r.res.maxAcked {
		r.violate("restarted daemon issued ticket %d, at or below the highest acked %d", tv.ID, r.res.maxAcked)
	}
	dv, err := c.drain()
	if err != nil {
		return err
	}
	if dv.Failed > 0 || dv.Error != "" {
		r.violate("restarted daemon's drain reported %d failed (%s)", dv.Failed, dv.Error)
	}
	return r.t.stop()
}
