// Command daemonbench is the repository's end-to-end benchmark. For one
// workload and seed it drives the real graphm-serve binary over loopback
// with tracing off and reports the user-visible metrics; with -trace 1 it
// then repeats the workload against the same stack built in-process, with
// spans around every call across the stack's public seams, and reports
// per-layer metrics and where each ticket's time went.
//
// run.sh builds both binaries from source and runs it from the repository
// root:
//
//	bash daemonbench/run.sh --workload twitter-poisson --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result as one JSON object; the
// line before it ("report ...") carries everything else: machine facts,
// every metric the workload produces with its unit, which percentile each
// tail metric is, and the time-share table. A correctness violation ends
// the run with exit code 1; a run that cannot complete exits 2 without a
// result.
package main

import (
	"debug/buildinfo"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// maxLateness bounds how late the open loop may send (at its tail
// percentile); a run whose generator fell further behind its schedule did
// not offer the load it claims, and is void.
const maxLateness = 0.05

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "daemonbench: %v\n", err)
	}
	killDaemons()
	os.Exit(code)
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	serveBin  string
	workDir   string
	benchFile string
}

func run() (int, error) {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds of load per run")
	flag.IntVar(&o.trace, "trace", 0, "1 adds the traced in-process run and reports per-layer metrics")
	flag.StringVar(&o.serveBin, "serve-bin", "", "graphm-serve binary to drive")
	flag.StringVar(&o.workDir, "work-dir", ".bench_build", "directory for logs, data directories, reports and spans")
	flag.StringVar(&o.benchFile, "bench-file", "BENCHMARK.json", "benchmark definition naming the metrics of the result line")
	flag.Parse()

	w, ok := workloadByName(o.workload)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) || o.serveBin == "" {
		return 2, errors.New("need -seconds > 0, -trace 0|1 and -serve-bin")
	}
	spec, err := loadSpec(o.benchFile)
	if err != nil {
		return 2, err
	}
	// A run that hangs still ends inside its budget, and takes its daemon
	// with it.
	limit := time.Minute + 5*time.Duration(o.seconds*float64(time.Second))
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "daemonbench: run exceeded %v, giving up\n", limit)
		killDaemons()
		os.Exit(2)
	})
	runDir := filepath.Join(o.workDir, "runs", fmt.Sprintf("%s-seed%d-trace%d", w.name, o.seed, o.trace))
	if err := os.RemoveAll(runDir); err != nil {
		return 2, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return 2, err
	}
	facts, err := machineFacts(o)
	if err != nil {
		return 2, err
	}
	conns := runtime.NumCPU()

	// The untraced run against the real binary: the end-to-end numbers.
	bin := &runner{w: w, t: &binTarget{bin: o.serveBin, logDir: runDir}, seed: o.seed,
		seconds: o.seconds, conns: conns, workDir: runDir, setupSamples: 9}
	if err := w.run(bin); err != nil {
		bin.t.kill()
		return 2, fmt.Errorf("%s against %s: %w", w.name, o.serveBin, err)
	}
	e2e, tails := endToEnd(&bin.res)
	rep := report{Facts: facts, EndToEnd: e2e, Tails: tails, Violations: bin.res.violations}
	checkLateness(&rep, "untraced", &bin.res)
	rep.Errors = firstErrors(rep.Errors, &bin.res)
	attempted, failed := bin.res.attempted, bin.res.failures()

	out := e2e
	wanted := spec.EndToEnd
	if o.trace == 1 {
		ip := newInprocTarget()
		tr := &runner{w: w, t: ip, seed: o.seed, seconds: o.seconds, conns: conns,
			workDir: filepath.Join(runDir, "traced"), setupSamples: 1}
		if err := os.MkdirAll(tr.workDir, 0o755); err != nil {
			return 2, err
		}
		if err := w.run(tr); err != nil {
			ip.kill()
			return 2, fmt.Errorf("%s traced in-process: %w", w.name, err)
		}
		traced, _ := endToEnd(&tr.res)
		spans := ip.tr.snapshot()
		layers, shares, remainder, n := perLayer(w, spans, &ip.acc, traced, e2e, &tr.res)
		rep.PerLayer, rep.Shares, rep.ShareTickets = layers, shares, n
		rep.Shares["remainder"] = remainder
		rep.Violations = append(rep.Violations, tr.res.violations...)
		if remainder > maxRemainder {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"time-share table leaves %.1f%% of ticket wall time unexplained (bound %.0f%%)", 100*remainder, 100*maxRemainder))
		}
		checkLateness(&rep, "traced", &tr.res)
		rep.Errors = firstErrors(rep.Errors, &tr.res)
		rep.SpanFile = filepath.Join(o.workDir, "spans-"+w.name+".jsonl.gz")
		if err := writeSpans(rep.SpanFile, spans); err != nil {
			return 2, err
		}
		attempted += tr.res.attempted
		failed += tr.res.failures()
		out, wanted = layers, spec.PerLayer
	}

	res := outcome{Correct: len(rep.Violations) == 0, Attempted: attempted, Failed: failed, Metrics: metrics{}}
	for _, d := range wanted {
		m, ok := out[d.Name]
		if !ok {
			return 2, fmt.Errorf("workload %s produces no metric %q named in %s", w.name, d.Name, o.benchFile)
		}
		if m.Unit != d.Unit {
			return 2, fmt.Errorf("metric %q is in %s, %s says %s", d.Name, m.Unit, o.benchFile, d.Unit)
		}
		res.Metrics[d.Name] = m
	}

	printTables(w, &rep)
	line, err := json.Marshal(rep)
	if err != nil {
		return 2, err
	}
	if err := os.WriteFile(filepath.Join(runDir, "report.json"), line, 0o644); err != nil {
		return 2, err
	}
	fmt.Printf("report %s\n", line)
	final, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	fmt.Println(string(final))
	if !res.Correct {
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "daemonbench: VIOLATION: %s\n", v)
		}
		return 1, nil
	}
	return 0, nil
}

// outcome is the last line of standard output.
type outcome struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report is everything else a run has to say.
type report struct {
	Facts        facts              `json:"facts"`
	EndToEnd     metrics            `json:"end_to_end"`
	Tails        map[string]tail    `json:"tails"`
	PerLayer     metrics            `json:"per_layer,omitempty"`
	Shares       map[string]float64 `json:"time_shares,omitempty"`
	ShareTickets int                `json:"time_share_tickets,omitempty"`
	SpanFile     string             `json:"span_file,omitempty"`
	Violations   []string           `json:"violations"`
	// Errors are the first failed operations' messages.
	Errors []string `json:"errors,omitempty"`
}

// checkLateness voids an open-loop run whose generator ran late.
func checkLateness(rep *report, which string, res *result) {
	if len(res.lateness) == 0 {
		return
	}
	if t := tailOf(res.lateness); t.Value > maxLateness {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"%s open loop ran %.3fs late at p%g (bound %gs): the offered load is void", which, t.Value, t.P, maxLateness))
	}
}

// firstErrors appends res's failed-operation messages to errs, keeping at
// most ten.
func firstErrors(errs []string, res *result) []string {
	for _, e := range res.errors {
		if len(errs) == 10 {
			break
		}
		errs = append(errs, e)
	}
	return errs
}

// benchSpec is the part of BENCHMARK.json this program reads: which
// metrics, with which units, the result line carries.
type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// facts describe the machine and build a run measured.
type facts struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	// PGO reports whether graphm-serve was built with a profile, and which.
	PGO        bool   `json:"pgo"`
	PGOProfile string `json:"pgo_profile,omitempty"`
}

func machineFacts(o options) (facts, error) {
	f := facts{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: cpuModel(), Commit: "unknown",
	}
	bi, err := buildinfo.ReadFile(o.serveBin)
	if err != nil {
		return f, fmt.Errorf("read build info of %s: %w", o.serveBin, err)
	}
	f.GoVersion = bi.GoVersion
	for _, s := range bi.Settings {
		switch s.Key {
		case "-pgo":
			f.PGO, f.PGOProfile = s.Value != "" && s.Value != "off", filepath.Base(s.Value)
		case "vcs.revision":
			f.Commit = s.Value
		}
	}
	return f, nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printTables writes the human-readable view of a report.
func printTables(w workload, rep *report) {
	fmt.Printf("workload %s  seed %d  %gs  GOMAXPROCS %d  nproc %d  %s  %s  pgo=%v  commit %s\n",
		w.name, rep.Facts.Seed, rep.Facts.Seconds, rep.Facts.GOMAXPROCS, rep.Facts.NProc,
		rep.Facts.CPUModel, rep.Facts.GoVersion, rep.Facts.PGO, rep.Facts.Commit)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "end-to-end (real binary, tracing off)\tvalue\tunit\t")
	for _, name := range sortedKeys(rep.EndToEnd) {
		m := rep.EndToEnd[name]
		note := ""
		if t, ok := rep.Tails[name]; ok {
			note = fmt.Sprintf("p%g of %d samples", t.P, t.N)
			if !t.Full {
				note += " (too few for a tail; median)"
			}
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", name, m.Value, m.Unit, note)
	}
	if rep.PerLayer != nil {
		fmt.Fprintln(tw, "per-layer (traced in-process run)\t\t\t")
		for _, name := range sortedKeys(rep.PerLayer) {
			m := rep.PerLayer[name]
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\n", name, m.Value, m.Unit)
		}
		fmt.Fprintf(tw, "where the tickets' time went (%d tickets)\tshare\t\t\n", rep.ShareTickets)
		for _, cat := range append(append([]string(nil), shareCategories...), "remainder") {
			fmt.Fprintf(tw, "  %s\t%.1f%%\t\t\n", cat, 100*rep.Shares[cat])
		}
	}
	tw.Flush()
}

func sortedKeys(m metrics) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
