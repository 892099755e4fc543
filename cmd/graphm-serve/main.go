// Command graphm-serve runs the online job-admission service against one
// dataset, in one of two modes.
//
// One-shot (legacy, the default): jobs arrive at Poisson-staggered times,
// join the streaming round already in flight at the next partition barrier,
// depart independently, and the process prints a report and exits — the
// paper's dynamic-concurrency scenario as a finite run.
//
// Daemon (-listen): the process becomes a long-running HTTP/JSON server
// (internal/server) — clients submit jobs over the socket, poll tickets,
// scrape Prometheus /metrics with rolling SLO windows, and shut the daemon
// down with POST /v1/drain or SIGTERM, which drains in-flight work and
// prints the final recovery state. See docs/API.md for the API reference.
//
// Usage:
//
//	graphm-serve -dataset twitter -jobs 12 -rate 40
//	graphm-serve -dataset uk-union -jobs 16 -tenants 4 -max-inflight 8
//	graphm-serve -dataset livej -algos pagerank,bfs -rate 100 -seed 7
//	graphm-serve -dataset twitter -listen :8080 -rate-limit 50 -slo-window 5m
//
// The one-shot report shows each ticket's lifecycle (queue wait, runtime,
// final status) and the sharing the admission layer achieved: shared
// partition loads, mid-round joins and arrival throughput.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"graphm/internal/bench"
	"graphm/internal/core"
	"graphm/internal/faultfs"
	"graphm/internal/memsim"
	"graphm/internal/profiles"
	"graphm/internal/server"
	"graphm/internal/service"
	"graphm/internal/storage"
)

func main() {
	var (
		dataset   = flag.String("dataset", "twitter", "dataset preset")
		nJobs     = flag.Int("jobs", 12, "number of jobs to submit")
		rate      = flag.Float64("rate", 40, "mean arrival rate, jobs per second")
		tenants   = flag.Int("tenants", 2, "number of tenants arrivals rotate across")
		algos     = flag.String("algos", "wcc,pagerank,sssp,bfs", "comma-separated algorithm rotation")
		inflight  = flag.Int("max-inflight", 8, "admission bound on concurrently streaming jobs")
		queueCap  = flag.Int("queue", 64, "per-tenant queue capacity (backpressure beyond it)")
		cores     = flag.Int("cores", 8, "simulated core count")
		adaptive  = flag.Bool("adaptive", false, "re-label chunks at partition barriers as the attending-job count moves (Formula 1 with N = live attendees)")
		relabelF  = flag.Float64("relabel-factor", 0, "adaptive chunking hysteresis factor (0 = default 2): re-label only on >= factor-x chunk-size drift")
		seed      = flag.Int64("seed", 42, "arrival and parameter seed")
		quietFlag = flag.Bool("q", false, "suppress the per-ticket table")
		cpuPro    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memPro    = flag.String("memprofile", "", "write a heap profile at exit to this file")

		listen    = flag.String("listen", "", "daemon mode: serve the HTTP/JSON API on this address (e.g. :8080) instead of the one-shot run")
		rateLimit = flag.Float64("rate-limit", 0, "daemon mode: per-tenant submission rate limit, jobs/s (0 = unlimited)")
		burst     = flag.Float64("burst", 0, "daemon mode: rate-limit burst size (0 = rate-limit rounded up)")
		sloWindow = flag.Duration("slo-window", 5*time.Minute, "daemon mode: rolling SLO window span exported by /metrics")
		dataDir   = flag.String("data-dir", "", "daemon mode: durable storage directory (WAL + checkpoints + ticket log); empty = in-memory only")
		ckEvery   = flag.Int("checkpoint-every", 0, "daemon mode: write a checkpoint every N WAL records (0 = default 256, negative = never)")
		noFsync   = flag.Bool("no-fsync", false, "daemon mode: skip fsync on the WAL and ticket log (faster, loses the power-failure guarantee)")
		faultSch  = flag.String("fault-schedule", "", "daemon mode, DEVELOPMENT ONLY: inject storage faults per this schedule (comma-separated op:kind[:path=sub][:after=N][:count=M][:p=F][:delay=D] rules; see internal/faultfs)")
		faultSeed = flag.Int64("fault-seed", 1, "daemon mode: RNG seed for probabilistic -fault-schedule rules")
	)
	flag.Parse()
	if *listen == "" && (*nJobs <= 0 || *rate <= 0 || *tenants <= 0) {
		fatal(fmt.Errorf("jobs, rate and tenants must be positive"))
	}
	if *dataDir != "" && *listen == "" {
		fatal(fmt.Errorf("-data-dir requires daemon mode (-listen)"))
	}
	stop, err := profiles.Start(*cpuPro, *memPro)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer stop()

	env, err := bench.NewGridEnv(*dataset)
	if err != nil {
		fatal(err)
	}
	cfg := core.DefaultConfig(env.Spec.LLCBytes)
	cfg.Cores = *cores
	cfg.AdaptiveChunking = *adaptive
	cfg.RelabelFactor = *relabelF
	mem := storage.NewMemory(env.Disk, env.Spec.MemBudget)
	cache, err := memsim.NewCache(memsim.DefaultConfig(env.Spec.LLCBytes))
	if err != nil {
		fatal(err)
	}
	sys, err := core.NewSystem(env.Grid.AsLayout(), mem, cache, cfg)
	if err != nil {
		fatal(err)
	}
	svcCfg := service.Config{
		MaxInFlight:        *inflight,
		MaxQueuedPerTenant: *queueCap,
		Seed:               *seed,
	}

	fmt.Printf("dataset %s: %d vertices, %d edges, grid %dx%d\n",
		env.Spec.Name, env.Spec.NumV, env.Spec.NumE, env.GridP, env.GridP)

	if *listen != "" {
		var store *storage.Store
		var recovery *storage.Recovery
		if *dataDir != "" {
			var fsys faultfs.FS
			if *faultSch != "" {
				sched, err := faultfs.ParseSchedule(*faultSch)
				if err != nil {
					fatal(fmt.Errorf("-fault-schedule: %w", err))
				}
				fmt.Fprintf(os.Stderr, "graphm-serve: FAULT INJECTION ARMED (seed %d): %s\n", *faultSeed, sched)
				fsys = faultfs.New(faultfs.OS{}, sched, rand.New(rand.NewSource(*faultSeed)))
			}
			store, recovery, err = storage.Open(*dataDir, storage.StoreOptions{
				NoSync:                 *noFsync,
				CheckpointEveryRecords: *ckEvery,
				FS:                     fsys,
			})
			if err != nil {
				fatal(err)
			}
			svcCfg.TicketLog = store
		}
		runDaemon(sys, svcCfg, server.Config{
			RatePerSec: *rateLimit,
			Burst:      *burst,
			SLOWindow:  *sloWindow,
		}, *listen, store, recovery)
		return
	}

	svc := service.New(sys, svcCfg)
	fmt.Printf("serving %d jobs at ~%.0f jobs/s across %d tenants (max in-flight %d)\n\n",
		*nJobs, *rate, *tenants, *inflight)

	rotation := strings.Split(*algos, ",")
	rng := rand.New(rand.NewSource(*seed))
	start := time.Now()
	var tickets []*service.Ticket
	for i := 0; i < *nJobs; i++ {
		if i > 0 {
			// Open-loop Poisson arrivals: exponential inter-arrival gaps.
			time.Sleep(time.Duration(rng.ExpFloat64() / *rate * float64(time.Second)))
		}
		algo := strings.TrimSpace(rotation[i%len(rotation)])
		tk, err := svc.Submit(service.Request{
			Tenant: fmt.Sprintf("tenant-%d", i%*tenants),
			Algo:   algo,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphm-serve: job %d (%s) rejected: %v\n", i+1, algo, err)
			continue
		}
		tickets = append(tickets, tk)
	}
	if err := svc.Drain(); err != nil {
		fatal(err)
	}
	wall := time.Since(start)

	if !*quietFlag {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "job\ttenant\talgo\tstatus\tqueue wait\truntime(real)\tsim time\tMedges/s\titers\tshared loads seen")
		for _, tk := range tickets {
			st := tk.Wait()
			// Streaming throughput: edges scanned past the job per second of
			// real runtime — what the hot path actually sustained for this
			// ticket on this machine.
			medges := 0.0
			if rt := tk.Runtime(); rt > 0 {
				medges = float64(tk.Job().Met.ScannedEdges) / rt.Seconds() / 1e6
			}
			fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%s\t%s\t%.1f\t%d\t%d\n",
				tk.ID, tk.Tenant, tk.Algo, st,
				tk.QueueWait().Round(time.Microsecond), tk.Runtime().Round(time.Microsecond),
				tk.SimRuntime().Round(time.Microsecond), medges,
				tk.Job().Met.Iterations, tk.StatsDelta().SharedLoads)
		}
		tw.Flush()
		fmt.Println()
	}

	snap := svc.Snapshot()
	stats := svc.SystemStats()
	fmt.Printf("admitted %d jobs (%d completed, %d canceled, %d failed, %d rejected)\n",
		snap.Admitted, snap.Completed, snap.Canceled, snap.Failed, snap.Rejected)
	fmt.Printf("throughput: %.1f jobs/s over %v wall (peak %d in flight, %d queued)\n",
		float64(snap.Completed)/wall.Seconds(), wall.Round(time.Millisecond),
		snap.PeakInFlight, snap.PeakQueued)
	fmt.Printf("sharing: %d shared partition loads, %d mid-round joins, %d rounds, %d suspensions\n",
		stats.SharedLoads, stats.MidRoundJoins, stats.Rounds, stats.Suspensions)
	if *adaptive {
		fmt.Printf("adaptive chunking: %d re-labels as attendance moved, %d skipped under hysteresis\n",
			stats.Relabels, stats.RelabelSkips)
	}
	if stats.SharedLoads == 0 {
		fmt.Println("warning: no partition load was shared — arrivals too sparse, or -max-inflight too tight, for this dataset")
	}
}

// runDaemon serves the HTTP/JSON API on addr until SIGTERM or SIGINT, then
// drains in-flight work, shuts the listener down, and prints the final
// recovery state as JSON. The process exits 0 when every admitted job
// terminated cleanly. With a store, startup first replays the directory
// (checkpoint + WAL + pending-ticket re-admission), and a housekeeping loop
// writes checkpoints as the record cadence comes due.
func runDaemon(sys *core.System, svcCfg service.Config, cfg server.Config, addr string, store *storage.Store, recovery *storage.Recovery) {
	srv := server.New(sys, svcCfg, cfg)
	if store != nil {
		if recovery.HasCheckpoint || recovery.WALRecords > 0 || recovery.Counts.Submitted > 0 {
			rec, err := srv.Restore(store, recovery)
			if err != nil {
				fatal(fmt.Errorf("recovery from %s: %w", store.Dir(), err))
			}
			fmt.Printf("recovered %s: checkpoint v%d + %d WAL records, %d tickets resumed (%d unresumable)\n",
				store.Dir(), rec.CheckpointVersion, rec.WALRecords, rec.ResumedTickets, rec.FailedTickets)
		} else {
			srv.AttachStore(store)
			fmt.Printf("durable storage at %s (fresh directory)\n", store.Dir())
		}
	}
	httpSrv := &http.Server{Addr: addr, Handler: srv}

	fmt.Printf("daemon listening on %s (max in-flight %d, SLO window %v); SIGTERM drains\n",
		addr, svcCfg.MaxInFlight, cfg.SLOWindow)

	// Catch SIGTERM before the listener opens: a client that sees /healthz
	// answer may stop the daemon at once, and a signal that lands before
	// Notify kills the process instead of draining it.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	// Housekeeping: fold the WAL into a checkpoint whenever the record
	// cadence comes due (so recovery replay stays short and old segments are
	// garbage-collected), and, while the daemon sits in degraded read-only
	// mode, probe the durable path each tick so a healed disk re-arms writes
	// without operator intervention.
	ckStop := make(chan struct{})
	if store != nil {
		go func() {
			tick := time.NewTicker(2 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-ckStop:
					return
				case <-tick.C:
					if degraded, cause, detail := srv.Degraded(); degraded {
						if srv.ProbeRecovery() {
							fmt.Fprintf(os.Stderr, "graphm-serve: durable path recovered (was degraded: %s)\n", cause)
						} else {
							fmt.Fprintf(os.Stderr, "graphm-serve: degraded (%s): %s\n", cause, detail)
						}
						continue
					}
					if _, err := srv.MaybeCheckpoint(false); err != nil {
						fmt.Fprintf(os.Stderr, "graphm-serve: checkpoint: %v\n", err)
					}
				}
			}
		}()
	}

	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "graphm-serve: caught %v, draining\n", sig)
	case err := <-errc:
		fatal(err)
	}
	close(ckStop)

	// Stop admitting and run every queued and in-flight ticket down before
	// closing the listener, so clients can still poll tickets and scrape
	// /metrics while the drain runs. Drain also writes the final checkpoint.
	st := srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "graphm-serve: shutdown: %v\n", err)
	}
	if store != nil {
		if err := store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "graphm-serve: store close: %v\n", err)
		}
	}

	out, _ := json.MarshalIndent(st, "", "  ")
	fmt.Println(string(out))
	if st.Error != "" || st.Failed != 0 {
		if stopProfiles != nil {
			stopProfiles()
		}
		os.Exit(1)
	}
}

// stopProfiles flushes the -cpuprofile/-memprofile output; fatal must run
// it because os.Exit skips the deferred call in main.
var stopProfiles func()

func fatal(err error) {
	if stopProfiles != nil {
		stopProfiles()
	}
	fmt.Fprintf(os.Stderr, "graphm-serve: %v\n", err)
	os.Exit(1)
}
