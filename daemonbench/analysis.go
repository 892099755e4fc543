package main

import "time"

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// endToEnd computes the user-visible metrics of one run from what the
// client saw. Metrics a workload does not exercise are left out; the tails
// map records which percentile each tail metric reports.
func endToEnd(res *result) (metrics, map[string]tail) {
	m := metrics{}
	tails := map[string]tail{}
	m.set("setup_s", "s", median(res.setup))
	m.set("peak_rss_mb", "MB", median(res.rss))

	var lat, qwait, sim []float64
	for _, j := range res.jobs {
		if j.view.Status != "done" {
			continue
		}
		lat = append(lat, j.done().Sub(j.sched).Seconds())
		qwait = append(qwait, j.view.QueueWaitSeconds)
		sim = append(sim, j.view.SimRuntimeSeconds)
	}
	addTail := func(name string, xs []float64) {
		t := tailOf(xs)
		tails[name] = t
		m.set(name, "s", t.Value)
	}
	var sum window
	for _, w := range res.windows {
		sum.completed += w.completed
		sum.jobSecs += w.jobSecs
		sum.writes += w.writes
		sum.loadSecs += w.loadSecs
	}
	if len(res.jobs) > 0 {
		m.set("jobs_per_s", "jobs/s", ratio(float64(sum.completed), sum.jobSecs))
		m.set("job_latency_p50_s", "s", median(lat))
		m.set("job_latency_mean_s", "s", mean(lat))
		m.set("queue_wait_mean_s", "s", mean(qwait))
		addTail("job_latency_tail_s", lat)
		addTail("queue_wait_tail_s", qwait)
		addTail("submit_ack_tail_s", res.submitRTT)
		// Simulated seconds from the cost model, not wall time.
		m.set("sim_job_runtime_mean_s", "sim_s", mean(sim))
	}
	if len(res.evolveRTT) > 0 {
		m.set("evolve_ack_p50_s", "s", median(res.evolveRTT))
		addTail("evolve_ack_tail_s", res.evolveRTT)
		m.set("evolve_acks_per_s", "ops/s", ratio(float64(res.evolveAcked), sum.loadSecs))
	}
	if len(res.recovery) > 0 {
		m.set("recovery_s", "s", median(res.recovery))
	}
	writes := append(append([]float64(nil), res.submitRTT...), res.evolveRTT...)
	m.set("write_ack_p50_s", "s", median(writes))
	m.set("write_acks_per_s", "ops/s", ratio(float64(sum.writes), sum.loadSecs))
	m.set("error_rate", "fraction", ratio(float64(res.failures()), float64(res.attempted)))
	return m, tails
}

// failures counts failed, refused and transport-broken operations plus
// accepted jobs that did not end done.
func (res *result) failures() int {
	return res.refused + res.rejected + res.transportErrs + res.notDone
}

// shareCategories are the rows of the where-did-the-ticket's-time-go
// table, highest attribution priority first: where a ticket's timeline is
// covered by more than one category at an instant, the first one listed
// gets it.
var shareCategories = []string{
	"stream", "partition_wait", "round_wait", "core_other",
	"backend_unsplit", "ticketlog", "server", "queue",
}

// maxRemainder bounds the share of summed ticket wall time the traced spans
// may leave unexplained; a run above it fails. The remainder is goroutine
// scheduling between the seams (a driver goroutine starting after its
// session opened, a ticket finishing after its session closed).
const maxRemainder = 0.05

// timeShares splits each ticket's wall time — from the start of its submit
// handler to the later of its session's close and its terminal ticket-log
// line — into shareCategories and returns each category's share of the
// summed wall time, plus the unexplained remainder. queueWait and runtime
// are the tickets' own lifecycle durations, used when the Backend was not
// traced.
func timeShares(spans []span, acc *layerCounters) (map[string]float64, float64, int) {
	type ticketSpans struct {
		submit            *span
		open              *span
		logSubmitEnd      int64
		cats              map[string][]interval
		closeEnd, termEnd int64
	}
	byTicket := map[int]*ticketSpans{}
	get := func(id int) *ticketSpans {
		t := byTicket[id]
		if t == nil {
			t = &ticketSpans{cats: map[string][]interval{}}
			byTicket[id] = t
		}
		return t
	}
	for i := range spans {
		s := &spans[i]
		if s.Ticket == 0 {
			continue
		}
		t := get(s.Ticket)
		iv := interval{s.Start, s.End}
		switch s.Name {
		case spanSubmit:
			t.submit = s
			t.cats["server"] = append(t.cats["server"], iv)
		case spanOpenSession:
			t.open = s
			t.cats["core_other"] = append(t.cats["core_other"], iv)
		case spanStream:
			t.cats["stream"] = append(t.cats["stream"], iv)
		case spanPartitionWait:
			t.cats["partition_wait"] = append(t.cats["partition_wait"], iv)
		case spanRoundWait:
			t.cats["round_wait"] = append(t.cats["round_wait"], iv)
		case spanEndIteration:
			t.cats["core_other"] = append(t.cats["core_other"], iv)
		case spanClose:
			t.cats["core_other"] = append(t.cats["core_other"], iv)
			t.closeEnd = s.End
		case spanLogSubmit:
			t.cats["ticketlog"] = append(t.cats["ticketlog"], iv)
			t.logSubmitEnd = s.End
		case spanLogTerminal:
			t.cats["ticketlog"] = append(t.cats["ticketlog"], iv)
			t.termEnd = s.End
		}
	}

	sums := map[string]int64{}
	var wallSum int64
	n := 0
	for id, t := range byTicket {
		qw, ok := acc.queueWait[id]
		if t.submit == nil || !ok {
			continue // not a ticket this run collected
		}
		end := max(t.closeEnd, t.termEnd)
		if t.open != nil {
			// The ticket queued from its submit ack to its session opening.
			if t.open.Start > t.submit.End {
				t.cats["queue"] = append(t.cats["queue"], interval{t.submit.End, t.open.Start})
			}
		} else if t.logSubmitEnd > 0 {
			// Backend untraced: the service stamps the ticket queued right
			// after its submit line is durable, so its lifecycle durations
			// lay out from there.
			admitted := t.logSubmitEnd + int64(qw)
			done := admitted + int64(acc.runtime[id])
			t.cats["queue"] = append(t.cats["queue"], interval{t.logSubmitEnd, admitted})
			t.cats["backend_unsplit"] = append(t.cats["backend_unsplit"], interval{admitted, done})
			end = max(end, done)
		}
		if end <= t.submit.Start {
			continue
		}
		wall := interval{t.submit.Start, end}
		var claimed []interval
		for _, cat := range shareCategories {
			got := clip(union(t.cats[cat]), wall)
			sums[cat] += measure(subtract(got, claimed))
			claimed = union(append(claimed, got...))
		}
		wallSum += end - t.submit.Start
		n++
	}
	shares := map[string]float64{}
	explained := 0.0
	for _, cat := range shareCategories {
		shares[cat] = ratio(float64(sums[cat]), float64(wallSum))
		explained += shares[cat]
	}
	remainder := 0.0
	if wallSum > 0 {
		remainder = 1 - explained
	}
	return shares, remainder, n
}

// spanStats are per-name totals over a run's spans.
type spanStats struct {
	n         int
	dur, self int64
}

func (s spanStats) meanDur() float64  { return ratio(float64(s.dur), float64(s.n)) / 1e9 }
func (s spanStats) meanSelf() float64 { return ratio(float64(s.self), float64(s.n)) / 1e9 }

func byName(spans []span) map[string]spanStats {
	self := selfTimes(spans)
	out := map[string]spanStats{}
	for i, s := range spans {
		st := out[s.Name]
		st.n++
		st.dur += s.dur()
		st.self += self[i]
		out[s.Name] = st
	}
	return out
}

// admitWait is the mean time from a ticket's submit ack (its handler's
// end) to its OpenJobSession call; a ticket opened before its ack waited 0.
func admitWait(spans []span) float64 {
	acks := map[int]int64{}
	opens := map[int]int64{}
	for _, s := range spans {
		switch s.Name {
		case spanSubmit:
			if s.Ticket != 0 {
				acks[s.Ticket] = s.End
			}
		case spanOpenSession:
			opens[s.Ticket] = s.Start
		}
	}
	var waits []float64
	for id, ack := range acks {
		if open, ok := opens[id]; ok {
			waits = append(waits, time.Duration(max(0, open-ack)).Seconds())
		}
	}
	return mean(waits)
}

// perLayer computes the traced run's layer metrics.
func perLayer(w workload, spans []span, acc *layerCounters, traced, untraced metrics, res *result) (metrics, map[string]float64, float64, int) {
	m := metrics{}
	st := byName(spans)

	late := tailOf(res.lateness)
	m.set("loadgen.lateness_tail_s", "s", late.Value)
	m.set("loadgen.sent", "count", float64(res.sent))

	m.set("server.submit_s", "s", st[spanSubmit].meanDur())
	m.set("server.submit_self_s", "s", st[spanSubmit].meanSelf())
	m.set("server.evolve_s", "s", st[spanEvolve].meanDur())
	m.set("server.evolve_self_s", "s", st[spanEvolve].meanSelf())
	m.set("server.requests", "count", float64(acc.requests))
	m.set("server.rejected_429", "count", float64(acc.rejected429))

	var qw []float64
	for _, d := range acc.queueWait {
		qw = append(qw, d.Seconds())
	}
	m.set("service.queue_wait_mean_s", "s", mean(qw))
	m.set("service.admit_wait_s", "s", admitWait(spans))
	m.set("service.admitted", "count", float64(acc.svcAdmit))
	m.set("service.peak_queued", "count", float64(acc.peakQ))
	m.set("service.peak_in_flight", "count", float64(acc.peakIF))
	m.set("service.ticketlog_submit_s", "s", st[spanLogSubmit].meanDur())
	m.set("service.ticketlog_terminal_s", "s", st[spanLogTerminal].meanDur())

	m.set("core.round_wait_s", "s", st[spanRoundWait].meanDur())
	m.set("core.partition_wait_s", "s", st[spanPartitionWait].meanDur())
	m.set("core.stream_s", "s", st[spanStream].meanDur())
	m.set("core.open_session_s", "s", st[spanOpenSession].meanDur())
	m.set("core.close_s", "s", st[spanClose].meanDur())
	m.set("core.evolve_s", "s", st[spanCoreEvolve].meanSelf())
	m.set("core.rounds", "count", float64(acc.core.Rounds))
	m.set("core.shared_loads", "count", float64(acc.core.SharedLoads))
	m.set("core.mid_round_joins", "count", float64(acc.core.MidRoundJoins))
	m.set("core.suspensions", "count", float64(acc.core.Suspensions))
	m.set("core.shared_load_ratio", "fraction", ratio(float64(acc.core.SharedLoads), float64(acc.met.PartitionLoads)))
	m.set("core.prefetch_hit_ratio", "fraction", ratio(float64(acc.core.PrefetchHits), float64(acc.core.Prefetches)))

	m.set("engine.scanned_edges", "count", float64(acc.met.ScannedEdges))
	m.set("engine.processed_edges", "count", float64(acc.met.ProcessedEdges))
	m.set("engine.partition_loads", "count", float64(acc.met.PartitionLoads))
	m.set("engine.iterations", "count", float64(acc.met.Iterations))
	m.set("engine.medges_per_stream_s", "Medges/s", ratio(float64(acc.met.ScannedEdges)/1e6, float64(st[spanStream].dur)/1e9))

	m.set("memsim.llc_hits", "count", float64(acc.llcHits))
	m.set("memsim.llc_misses", "count", float64(acc.llcMisses))
	m.set("memsim.llc_miss_rate", "fraction", ratio(float64(acc.llcMisses), float64(acc.llcHits+acc.llcMisses)))

	m.set("storage.mem_faults", "count", float64(acc.memFaults))
	m.set("storage.mem_evictions", "count", float64(acc.memEvicts))
	m.set("storage.mem_rehits", "count", float64(acc.memRehits))
	m.set("storage.mem_peak_bytes", "bytes", float64(acc.memPeak))
	m.set("storage.disk_read_bytes", "bytes", float64(acc.diskBytes))
	m.set("storage.disk_read_ops", "count", float64(acc.diskOps))

	m.set("storage.wal_append_s", "s", st[spanWALAppend].meanDur())
	m.set("storage.wal_commit_wait_s", "s", st[spanWALCommit].meanDur())
	m.set("storage.wal_appends_per_sync", "count", ratio(float64(acc.wal.Appends), float64(acc.wal.Syncs)))
	m.set("storage.wal_bytes_per_record", "bytes", ratio(float64(acc.wal.Bytes), float64(acc.wal.Appends)))
	// The same WAL costs as shares of the evolve handlers' time, which
	// compare across workloads (0 where nothing evolves).
	m.set("storage.wal_append_share", "fraction", ratio(float64(st[spanWALAppend].dur), float64(st[spanEvolve].dur)))
	m.set("storage.wal_commit_share", "fraction", ratio(float64(st[spanWALCommit].dur), float64(st[spanEvolve].dur)))
	m.set("storage.checkpoint_s", "s", st[spanCheckpoint].meanDur())
	m.set("storage.checkpoints", "count", float64(st[spanCheckpoint].n))
	m.set("storage.recover_open_s", "s", st[spanRecoverOpen].meanDur())
	m.set("server.restore_s", "s", st[spanRestore].meanDur())

	// The cost model's simulated nanoseconds, never mixed with wall time.
	jobs := float64(acc.tickets)
	m.set("sim.mem_ns_per_edge", "sim_ns", ratio(float64(acc.met.SimMemNS), float64(acc.met.ScannedEdges)))
	m.set("sim.compute_ns_per_job", "sim_ns", ratio(float64(acc.met.SimComputeNS), jobs))
	m.set("sim.io_ns_per_job", "sim_ns", ratio(float64(acc.met.SimIONS), jobs))

	m.set("trace.jobs_per_s", "jobs/s", traced["jobs_per_s"].Value)
	m.set("trace.job_latency_p50_s", "s", traced["job_latency_p50_s"].Value)
	m.set("trace.overhead_frac", "fraction", overheadFrac(w, traced, untraced))

	shares, remainder, n := timeShares(spans, acc)
	for _, cat := range shareCategories {
		m.set("share."+cat, "fraction", shares[cat])
	}
	m.set("share.remainder", "fraction", remainder)
	return m, shares, remainder, n
}

// overheadFrac is the relative cost tracing adds to the workload's primary
// metric against the untraced run of the same seed: throughput for the
// backlog, median job latency for the others. Positive means the traced
// run was slower.
func overheadFrac(w workload, traced, untraced metrics) float64 {
	if w.name == "ukunion-backlog" {
		return ratio(untraced["jobs_per_s"].Value, traced["jobs_per_s"].Value) - 1
	}
	return ratio(traced["job_latency_p50_s"].Value, untraced["job_latency_p50_s"].Value) - 1
}
