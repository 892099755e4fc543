// Command graphm-replay runs the week-in-the-life trace replay: the
// synthetic Figure 2 trace (mean ≈16 concurrent jobs, peaks >30 over 168
// hours) driven through the online admission service on a virtual simulated
// clock. A week of arrivals, queue waits and ticket lifecycles replays in
// seconds of wall time; the ticket log is byte-identical for a given seed.
//
// Usage:
//
//	graphm-replay                        # the full 168 h week
//	graphm-replay -hours 24 -inflight 8  # one saturated day
//	graphm-replay -hours 6 -log          # print the deterministic ticket log
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"graphm/internal/replay"
)

func main() {
	var (
		hours    = flag.Int("hours", 168, "trace length in hours")
		seed     = flag.Int64("seed", 42, "trace and scheduling seed")
		tenants  = flag.Int("tenants", 4, "number of tenants arrivals are spread across")
		inflight = flag.Int("inflight", 0, "admission cap (0 = default 24)")
		joblen   = flag.Float64("joblen", 0, "mean virtual job duration in hours (0 = default 2.0)")
		queue    = flag.Int("queue", 0, "per-tenant queue bound (0 = service default)")
		showLog  = flag.Bool("log", false, "print the full deterministic ticket log before the summary")
	)
	flag.Parse()
	cfg := replay.Config{
		Hours:              *hours,
		Seed:               *seed,
		Tenants:            *tenants,
		MaxInFlight:        *inflight,
		JobHours:           *joblen,
		MaxQueuedPerTenant: *queue,
	}
	if err := run(cfg, *showLog, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "graphm-replay:", err)
		os.Exit(1)
	}
}

// run executes the replay and writes the (optionally log-prefixed) summary.
func run(cfg replay.Config, showLog bool, w io.Writer) error {
	rep, err := replay.Run(cfg)
	if err != nil {
		return err
	}
	if showLog {
		if _, err := io.WriteString(w, rep.LogText()); err != nil {
			return err
		}
	}
	rep.Summary(w)
	return nil
}
