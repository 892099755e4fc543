package server

import (
	"fmt"
	"net/http"
	"strings"

	"graphm/internal/slo"
)

// handleMetrics serves the Prometheus text exposition format (version
// 0.0.4) with no external dependencies: the service admission counters, the
// core sharing-controller counters (shared loads, mid-round joins,
// suspensions...), the HTTP-layer counters, and the rolling SLO windows as summary-style quantile gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.svc.Snapshot()
	stats := s.svc.SystemStats()

	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	// Admission lifecycle.
	counter("graphm_jobs_submitted_total", "Jobs accepted by Submit.", snap.Submitted)
	counter("graphm_jobs_rejected_total", "Submissions refused for queue backpressure.", snap.Rejected)
	counter("graphm_jobs_admitted_total", "Tickets admitted to the sharing controller.", snap.Admitted)
	counter("graphm_jobs_completed_total", "Tickets that converged.", snap.Completed)
	counter("graphm_jobs_canceled_total", "Tickets canceled before or during streaming.", snap.Canceled)
	counter("graphm_jobs_failed_total", "Tickets that ended in failure.", snap.Failed)

	// Live queue shape.
	gauge("graphm_queue_depth", "Tickets currently waiting for admission.", float64(snap.Queued))
	gauge("graphm_jobs_in_flight", "Tickets admitted and not yet terminal.", float64(snap.InFlight))
	gauge("graphm_tenants_queued", "Tenants currently holding queued work.", float64(snap.Tenants))
	gauge("graphm_peak_in_flight", "High-water mark of in-flight tickets.", float64(snap.PeakInFlight))
	gauge("graphm_peak_queued", "High-water mark of the admission queue.", float64(snap.PeakQueued))

	// Sharing controller — the paper's amortization story, live.
	counter("graphm_rounds_total", "Streaming rounds completed.", uint64(stats.Rounds))
	counter("graphm_shared_loads_total", "Partition loads served to more than one job.", stats.SharedLoads)
	counter("graphm_mid_round_joins_total", "Iteration joins into a round already in flight.", stats.MidRoundJoins)
	counter("graphm_detaches_total", "Jobs withdrawn from sharing before convergence.", stats.Detaches)
	counter("graphm_suspensions_total", "Job suspensions waiting for a needed partition.", stats.Suspensions)

	// Durable storage: the live snapshot version (bumps on every global
	// evolve update and restore), recovery facts, and the WAL's group-commit
	// economics (syncs << appends is the batching win).
	gauge("graphm_snapshot_version", "Current graph snapshot version.", float64(s.sys.SnapshotVersion()))
	if rec := s.Recovered(); rec != nil {
		gauge("graphm_recovered", "1 when this process recovered from a durable data directory.", 1)
		counter("graphm_recovered_wal_records", "WAL records replayed at startup.", uint64(rec.WALRecords))
		counter("graphm_resumed_tickets", "Pending tickets re-admitted at startup.", uint64(rec.ResumedTickets))
	}
	if st := s.Store(); st != nil {
		ws := st.WALStats()
		counter("graphm_wal_appends_total", "Evolve records appended to the WAL.", ws.Appends)
		counter("graphm_wal_batches_total", "Write batches flushed (group commit).", ws.Batches)
		counter("graphm_wal_syncs_total", "fsync calls issued by the WAL.", ws.Syncs)
		counter("graphm_wal_bytes_total", "Bytes framed into the WAL.", ws.Bytes)
		counter("graphm_wal_retries_total", "WAL flushes recovered via the truncate-rewrite retry path.", ws.Retries)
		counter("graphm_ticketlog_dropped_total", "Ticket terminal lines lost to persistent write errors.", st.TicketLogDropped())
	}

	// Graceful degradation: whether the durable path is down, why, and how
	// the recovery probing is going.
	if degraded, cause, _ := s.Degraded(); degraded {
		fmt.Fprintf(&b, "# HELP graphm_degraded 1 while the daemon is in degraded read-only mode.\n# TYPE graphm_degraded gauge\ngraphm_degraded{cause=%q} 1\n", cause)
	} else {
		gauge("graphm_degraded", "1 while the daemon is in degraded read-only mode.", 0)
	}
	counter("graphm_degraded_entered_total", "Times the daemon entered degraded mode.", s.degradedTotal.Load())
	counter("graphm_recovery_probes_total", "Durable-path recovery probes attempted while degraded.", s.probeAttempts.Load())

	// HTTP layer.
	counter("graphm_http_requests_total", "HTTP requests served.", s.httpRequests.Load())
	counter("graphm_http_errors_total", "HTTP responses with status >= 400.", s.httpErrors.Load())
	counter("graphm_http_rate_limited_total", "Submissions refused with 429 (rate limit or queue full).", s.httpRateLimited.Load())
	if s.limiter != nil {
		gauge("graphm_rate_limiter_tenants", "Live token buckets in the per-tenant rate limiter.", float64(s.limiter.size()))
	}
	if s.Draining() {
		gauge("graphm_draining", "1 while the daemon is draining.", 1)
	} else {
		gauge("graphm_draining", "1 while the daemon is draining.", 0)
	}
	gauge("graphm_uptime_seconds", "Seconds since the daemon started.",
		s.cfg.Clock.Now().Sub(s.started).Seconds())

	// Rolling SLO windows: summary-style quantiles over the last
	// Config.SLOWindow, computed by internal/slo — the same aggregation
	// the offline replay reports use.
	writeSummary(&b, "graphm_queue_wait_seconds",
		"Queue wait (submit to admission) over the rolling SLO window.", s.waitSLO.Snapshot())
	writeSummary(&b, "graphm_job_runtime_seconds",
		"Admission-to-terminal runtime over the rolling SLO window.", s.runSLO.Snapshot())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// writeSummary renders one slo.Summary as a Prometheus summary metric plus
// a _max gauge (Prometheus summaries have no native max).
func writeSummary(b *strings.Builder, name, help string, s slo.Summary) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
	fmt.Fprintf(b, "%s{quantile=\"0.5\"} %g\n", name, s.P50)
	fmt.Fprintf(b, "%s{quantile=\"0.9\"} %g\n", name, s.P90)
	fmt.Fprintf(b, "%s{quantile=\"0.99\"} %g\n", name, s.P99)
	fmt.Fprintf(b, "%s_sum %g\n", name, s.Sum)
	fmt.Fprintf(b, "%s_count %d\n", name, s.Count)
	fmt.Fprintf(b, "# HELP %s_max Window maximum.\n# TYPE %s_max gauge\n%s_max %g\n", name, name, name, s.Max)
}
